import json
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product
from math import prod
from operator import add

import pytest
import sympy
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from bfree import families, lattices, numtheory, windows
from bfree.errors import (
    NotAZeroWindowError,
    NotCoprimeError,
    NotEnoughIdealsError,
    TooLargeError,
)
from bfree.families import (
    FamilySpec,
    RectEntry,
    Rectangular,
    RectTemplate,
    Static,
    Template,
    parse_family,
    preset,
)
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

from helpers import canonical_lattices, entries, param_seqs, random_unimodular, scaled_row

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


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_box_layout_point_at_inverts_index_of(data):
    m = data.draw(st.integers(1, 3))
    lo = data.draw(st.lists(st.integers(-40, 40), min_size=m, max_size=m))
    hi = [a + data.draw(st.integers(0, {1: 30, 2: 8, 3: 4}[m])) for a in lo]
    box = Box(tuple(lo), tuple(hi))
    assert box.strides == tuple(prod(box.sides[k + 1 :]) for k in range(m))
    cells = [box.point_at(i) for i in range(box.volume)]
    assert cells == list(box.points())
    assert [box.index_of(p) for p in cells] == list(range(box.volume))


def test_box_refuses_a_point_of_another_dimension():
    box = Box((0, 0), (2, 2))
    for p in ((1,), (1, 1, 1)):
        for method in (box.shifted, box.contains, box.index_of):
            with pytest.raises(ValueError, match="^dimension mismatch$"):
                method(p)
    for i in (-1, box.volume):
        with pytest.raises(ValueError, match="outside the box"):
            box.point_at(i)
    shape = Shape.from_offsets([(0, 0)])
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        syndetic_period(preset("ex2"), (0, 0, 5), shape)
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        syndetic_period(preset("ex2"), (0, 5), Shape.from_offsets([(0, 0, 0)]))


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


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_free_cells_are_counted_from_the_bits(data):
    # a window read back from JSON may carry set bits past the box volume
    box = data.draw(boxes(data.draw(st.sampled_from((1, 2))), max_half=4))
    bits = data.draw(st.binary(min_size=(box.volume + 7) // 8, max_size=(box.volume + 7) // 8))
    window = FreeWindow.from_json_dict(FreeWindow(box, bits).to_json_dict())
    assert window.ones() == window._chars().count("1")


def test_free_cells_ignore_padding_bits():
    window = FreeWindow.from_json_dict({"box": {"lo": [0], "hi": [4]}, "bits": "/w=="})
    assert window.bits == b"\xff"
    assert window.ones() == window._chars().count("1") == 5


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


def test_finite_members_are_mapped_once_per_spec(monkeypatch):
    # five finite members under a transform: ten one-row calls map each
    # member through the transform once, not once per call
    spec = parse_family("dim 2\nrecttemplate [t,t^2] params=explicit:2,3,5,7\nrect [3,1]\ntransform [[1,0],[1,1]]\n")
    boxes = [Box((x, -5), (x, 5)) for x in range(10)]
    expected = [bytearray(map(spec.covered, box.points())) for box in boxes]
    built = []
    hnf = lattices.hnf

    def counting(*args, **kwargs):
        built.append(args)
        return hnf(*args, **kwargs)

    monkeypatch.setattr(lattices, "hnf", counting)
    assert [covered_flags(spec, box) for box in boxes] == expected
    assert len(built) == 5


def test_transformed_windows_never_evaluate_per_cell(monkeypatch):
    # no entry is evaluated cell by cell in either box
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
    # the only lattices built are the images of the single lattices, once
    # per spec, and of the bases of the templates that scale only their last
    # row, once per call: no template member is mapped through the transform
    singles = [TRANSFORMED.image(e.lattice) for e in TRANSFORMED.entries if isinstance(e, Static)]
    bases = [TRANSFORMED.image(e.base) for e in TRANSFORMED.entries if isinstance(e, Template) and not any(e.exps[:-1])]
    assert len(singles) == 2 and len(bases) == 1
    images = set(singles + bases)
    spec = FamilySpec(TRANSFORMED.dim, TRANSFORMED.entries, TRANSFORMED.transform)  # holds no image yet
    built = []
    hnf = lattices.hnf

    def record(*args, **kwargs):
        lattice = hnf(*args, **kwargs)
        assert lattice in images
        built.append(lattice)
        return lattice

    monkeypatch.setattr(lattices, "hnf", record)
    monkeypatch.setattr(families, "hnf", record)
    assert [free_window(spec, box) for box in (near, far)] == windows_expected
    assert Counter(built) == Counter(singles + bases * 2)
    assert density_profile(TRANSFORMED, [1, 3], Box((-3, -3), (3, 3))) == profile
    assert [find_zero_window(TRANSFORMED, shape, box) for box in (near, far)] == [h[0] for h in hits]


def test_single_lattices_answer_by_lines(monkeypatch):
    # static and rect entries are marked through their lattices' images, on
    # the rows of the box that those meet, and never evaluated per cell
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
    assert set().union(*windows._box_lines(spec, box)) == meeting
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


SHEAR = UnimodularMap(((1, 3), (3, 10)))


@pytest.mark.parametrize("spec", [
    preset("ex1"),
    FamilySpec(2, preset("ex1").entries, transform=SHEAR),
    parse_family("dim 2\nrecttemplate [t,t] params=primes\n"),
    parse_family("dim 2\nrect [3,1]\nrecttemplate [t,t] params=primes\ntransform [[1,3],[3,10]]\n"),
    TRANSFORMED,
], ids=["ex1", "ex1-transformed", "tt-primes", "tt-primes-transformed", "transformed"])
def test_line_tables_split_into_chunks(spec, monkeypatch):
    # with chunks of 7 lines, the chunks hold every line that meets the
    # box exactly once, and marking chunk by chunk, factoring entries'
    # skip tests included, gives the per-cell flags
    monkeypatch.setattr(windows, "_CHUNK_LINES", 7)
    for box in (Box((-12, -9), (13, 11)), Box((10**9, -3), (10**9 + 40, 2)), Box((5, 7), (60, 7))):
        tables = list(windows._box_lines(spec, box))
        meeting = {spec.pullback(p)[:-1] for p in box.points()}
        assert len(tables) > 3 and all(len(t) <= 7 for t in tables)
        assert set().union(*tables) == meeting and sum(map(len, tables)) == len(meeting)
        assert covered_flags(spec, box) == bytearray(map(spec.covered, box.points()))


def identity_transformed(spec: FamilySpec) -> FamilySpec:
    """The same family under an explicit identity transform, which takes
    the general line tables of _box_lines."""
    m = spec.dim
    return FamilySpec(m, spec.entries, UnimodularMap(tuple(tuple(int(i == j) for j in range(m)) for i in range(m))))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_row_tables_equal_the_general_tables_of_the_identity(data):
    # without a transform the line tables are read off the box's rows; they
    # are the tables the general path builds for the identity, in the same
    # order and chunks, and give the same flags
    m = data.draw(st.sampled_from((2, 3, 4)))
    spec = FamilySpec(m, tuple(data.draw(st.lists(entries(m), max_size=3))))
    identity = identity_transformed(spec)
    box = data.draw(boxes(m, max_half={2: 12, 3: 4, 4: 2}[m]))
    chunk = data.draw(st.sampled_from((1, 3, windows._CHUNK_LINES)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(windows, "_CHUNK_LINES", chunk)
        assert list(windows._box_lines(spec, box)) == list(windows._box_lines(identity, box))
        assert covered_flags(spec, box) == covered_flags(identity, box)


def test_row_tables_of_a_box_taller_than_one_chunk():
    # 4 * _CHUNK_LINES + 5 rows: five tables, the last of 5 rows, and the
    # flags of the general path and of one covered call per cell
    spec = parse_family("dim 2\nrect [3,1]\nrecttemplate [t,t] params=primes\nrecttemplate [2t,t] params=oddprimes\n")
    rows = 4 * windows._CHUNK_LINES + 5
    box = Box((-(rows // 2), -2), (rows - 1 - rows // 2, 3))
    identity = identity_transformed(spec)
    tables = list(windows._box_lines(spec, box))
    assert [len(t) for t in tables] == [windows._CHUNK_LINES] * 4 + [5]
    assert tables == list(windows._box_lines(identity, box))
    flags = covered_flags(spec, box)
    assert flags == covered_flags(identity, box) == bytearray(map(spec.covered, box.points()))


@st.composite
def single_lattice_specs(draw):
    m = draw(st.sampled_from((1, 2, 3)))
    lattices_ = canonical_lattices(m, max_diag=6).filter(Lattice.is_proper).map(Static)
    ents = tuple(draw(st.lists(lattices_, min_size=1, max_size=3)))
    transform = None
    if draw(st.booleans()):
        transform = random_unimodular(random.Random(draw(st.integers(0, 10**6))), m, ops=6)
    return FamilySpec(m, ents, transform=transform)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_single_lattices_are_marked_by_rows_as_per_cell(data):
    # boxes with sides of 1 and far offsets; no line of entry coordinates
    # is built for a spec of single lattices
    spec = data.draw(single_lattice_specs())
    scale = data.draw(st.sampled_from((0, 10, 10**6, 10**12)))
    half = {1: 100, 2: 10, 3: 3}[spec.dim]
    lo = [data.draw(st.integers(-scale, scale)) for _ in range(spec.dim)]
    box = Box(tuple(lo), tuple(a + data.draw(st.sampled_from((0, 0, 1, half))) for a in lo))
    expected = bytearray(map(spec.covered, box.points()))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(windows, "_box_lines", refuse_lines)
        assert covered_flags(spec, box) == expected


def refuse_lines(*args):
    raise AssertionError("a line table was built")


def row_step(spec, entry):
    """The step of a last-row template's last coefficient from one point of
    spec.image(entry.base) to the next along a row, d * e_m apart, solved
    with sympy: the last coordinate of B^-1 A^-1 (d * e_m)."""
    d = spec.image(entry.base).basis[-1][-1]
    inverse = sympy.Matrix(entry.base.basis).inv() * sympy.Matrix(spec.coordinates()[0]).inv()
    k = (inverse * sympy.Matrix([0] * (spec.dim - 1) + [d]))[-1]
    assert k.is_integer
    return int(k)


# transforms of Z^2 whose rows step the last coefficient of Z^2 by 0, -1, 2, 3, -3
STEP_TRANSFORMS = ([[0, 1], [1, 0]], [[1, 0], [0, -1]], [[2, -1], [-1, 1]], [[3, -1], [-2, 1]], [[1, 1], [2, 3]])


@st.composite
def last_row_specs(draw):
    """One or two templates that scale only their last row, among up to
    two single lattices, with or without a transform."""
    m = draw(st.sampled_from((1, 2, 3)))

    def template():
        try:
            if draw(st.booleans()):
                slots = [RectEntry(draw(st.integers(1, 3))) for _ in range(m - 1)]
                return RectTemplate((*slots, RectEntry(draw(st.integers(1, 3)), draw(st.integers(1, 3)))), draw(param_seqs()))
            return Template(draw(canonical_lattices(m)), scaled_row(m, m - 1), draw(param_seqs()))
        except ValueError:  # parameter 1 on an improper base
            assume(False)

    ents = [template() for _ in range(draw(st.integers(1, 2)))]
    ents += draw(st.lists(canonical_lattices(m, max_diag=5).filter(Lattice.is_proper).map(Static), max_size=2))
    transform = draw(st.sampled_from(("none", "random", "chosen")))
    if transform == "random":
        transform = random_unimodular(random.Random(draw(st.integers(0, 10**6))), m, ops=6)
    elif transform == "chosen" and m == 2:
        transform = UnimodularMap(tuple(map(tuple, draw(st.sampled_from(STEP_TRANSFORMS)))))
    else:
        transform = None
    return FamilySpec(m, tuple(draw(st.permutations(ents))), transform=transform)


def refuse_line_route(mp):
    def refuse(*args):
        raise AssertionError("a last-row template went by lines")

    mp.setattr(windows, "_box_lines", refuse)
    mp.setattr(Template, "_eliminate", refuse)
    mp.setattr(Template, "line_pieces", refuse)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_last_row_templates_are_marked_by_rows_as_per_cell(data):
    # with and without a transform, boxes with sides of 1 and far offsets:
    # the rows of the base's image, and no line of entry coordinates
    spec = data.draw(last_row_specs())
    for entry in spec.entries:
        if isinstance(entry, Template):
            event(f"row step {min(max(row_step(spec, entry), -3), 3)}")
    scale = data.draw(st.sampled_from((0, 10, 10**6, 10**12)))
    half = {1: 100, 2: 8, 3: 3}[spec.dim]
    lo = [data.draw(st.integers(-scale, scale)) for _ in range(spec.dim)]
    box = Box(tuple(lo), tuple(a + data.draw(st.sampled_from((0, 0, 1, half))) for a in lo))
    expected = bytearray(map(spec.covered, box.points()))
    with pytest.MonkeyPatch.context() as mp:
        refuse_line_route(mp)
        assert covered_flags(spec, box) == expected


@pytest.mark.parametrize("dim, template, transform, step", [
    (1, "recttemplate [2t^2] params=primes", "[[-1]]", -1),
    (2, "recttemplate [1,t^2] params=primes", "[[0,1],[1,0]]", 0),
    (2, "recttemplate [1,t^2] params=primes!2", "[[1,0],[0,-1]]", -1),
    (2, "template base=[[1,1],[0,2]] scale=(2,2) params=primes", "[[1,0],[0,1]]", 1),
    (2, "recttemplate [1,t^2] params=primes", "[[2,-1],[-1,1]]", 2),
    (2, "recttemplate [1,t^3] params=geometric:2", "[[3,-1],[-2,1]]", 3),
    (2, "recttemplate [1,t^2] params=explicit:2,3,6", "[[20,-1],[-19,1]]", 20),
    (2, "recttemplate [1,t^2] params=geometric:3", "[[20,-1],[-19,1]]", 20),
    (3, "recttemplate [1,2,t^2] params=primes", "[[1,2,0],[0,1,3],[1,2,1]]", None),
])
def test_last_row_templates_on_chosen_steps(dim, template, transform, step):
    spec = parse_family(f"dim {dim}\n{template}\nrect [{','.join(['2'] + ['1'] * (dim - 1))}]\ntransform {transform}\n")
    entry = spec.entries[0]
    if step is not None:
        assert row_step(spec, entry) == step
    # an explicit template is a finite entry: its members are marked on
    # their own, beside the rect's, and the row walk is not taken
    walked, marked = [], []
    walk, mark = windows._mark_last_row, windows._mark_lattice

    def recording(flags, spec, entry, *rest):
        walked.append(entry)
        walk(flags, spec, entry, *rest)

    def marking(flags, lattice, *rest):
        marked.append(lattice)
        mark(flags, lattice, *rest)

    for c in (0, 10**6, -(10**12)):
        for sides in ((9,) * dim, (1,) * (dim - 1) + (40,), (40,) + (1,) * (dim - 1)):
            box = Box((c,) * dim, tuple(c + s - 1 for s in sides))
            expected = bytearray(map(spec.covered, box.points()))
            walked.clear()
            marked.clear()
            with pytest.MonkeyPatch.context() as mp:
                refuse_line_route(mp)
                mp.setattr(windows, "_mark_last_row", recording)
                mp.setattr(windows, "_mark_lattice", marking)
                assert covered_flags(spec, box) == expected
            if entry.is_infinite:
                assert walked == [entry]
            else:
                assert walked == [] and marked == list(spec.finite_images) and len(marked) == 4


def test_row_walk_inverts_the_step_once_per_entry(monkeypatch):
    # k = 20: each row's values are v0, v0 + 20, ... near 4 * 10^10; the
    # trial primes' inverses of 20 are computed once, not once per row
    spec = parse_family("dim 2\nrecttemplate [1,t^2] params=primes\ntransform [[20,-1],[-19,1]]\n")
    assert row_step(spec, spec.entries[0]) == 20
    box = Box((10**9, 10**9), (10**9 + 30, 10**9 + 30))
    expected = bytearray(map(spec.covered, box.points()))
    inverses = []

    def counting_pow(base, exp, mod=None):
        if exp == -1:
            inverses.append(mod)
        return pow(base, exp, mod)

    runs = []
    sieve = families.Primes.power_hits

    def recording(self, run, e):
        runs.append(run)
        return sieve(self, run, e)

    families._step_inverses.cache_clear()
    monkeypatch.setattr(families, "pow", counting_pow, raising=False)
    monkeypatch.setattr(families.Primes, "power_hits", recording)
    assert covered_flags(spec, box) == expected
    # every row's run takes the same trial bound, by the sieve's rule
    bounds = {numtheory.trial_bound(max(abs(run[0]), abs(run[-1])), 3) for run in runs}
    assert len(runs) == 31 and len(bounds) == 1
    primes = [p for p in families.primes_up_to(bounds.pop()) if 20 % p]
    assert sorted(inverses) == primes  # one table, no inverse per row


def test_factoring_last_row_template_skips_rows_covered_by_lines(monkeypatch):
    # the geometric template scales its first row, so it goes by lines, and
    # covers the rows of even x_0; the last-row template over primes may
    # factor, so it comes after and sieves only the odd rows.  Its last
    # coefficient is x_1 - 3 x_0, so each row's run starts at lo_1 - 3 x_0.
    spec = parse_family(
        "dim 2\nrecttemplate [1,t^2] params=primes\nrecttemplate [t,1] params=geometric:2\n"
        "transform [[1,0],[3,1]]\n"
    )
    lo = 10**15
    box = Box((lo, lo), (lo + 19, lo + 19))
    expected = bytearray(map(spec.covered, box.points()))
    runs = []
    sieve = families.Primes.power_hits

    def recording(self, run, e):
        runs.append(run)
        return sieve(self, run, e)

    monkeypatch.setattr(families.Primes, "power_hits", recording)
    assert covered_flags(spec, box) == expected
    rows = [(lo - run.start) // 3 for run in runs]
    assert all(run.step == 1 and len(run) == 20 for run in runs)
    assert rows == list(range(lo + 1, lo + 20, 2))


def test_templates_that_never_factor_skip_lines_already_covered(monkeypatch):
    # ex1's two single lattices cover every line with odd x_0 before any
    # template is asked; its geometric template never factors, yet it asks
    # line_pieces only on lines with even x_0, as the odd-prime one does
    spec, box = preset("ex1"), Box((-15, -15), (15, 15))
    expected = bytearray(map(spec.covered, box.points()))
    asked = []
    pieces = families.Template.line_pieces

    def recording(self, prefix, power_hits):
        asked.append(prefix)
        return pieces(self, prefix, power_hits)

    monkeypatch.setattr(families.Template, "line_pieces", recording)
    assert covered_flags(spec, box) == expected
    assert asked and all(x0 % 2 == 0 for (x0,) in asked)


def test_last_row_templates_that_never_factor_skip_rows_already_covered(monkeypatch):
    # rect [2,1] covers the rows of even x_0, so the geometric last-row
    # template ORs its hits into the odd rows only
    spec, box = parse_family("dim 2\nrect [2,1]\nrecttemplate [1,t] params=geometric:3\n"), Box((-6, -9), (7, 9))
    expected = bytearray(map(spec.covered, box.points()))
    merged = []
    or_run = windows._or_run

    def recording(flags, run, hits):
        merged.append(run.start // box.strides[0] + box.lo[0])
        return or_run(flags, run, hits)

    monkeypatch.setattr(windows, "_or_run", recording)
    assert covered_flags(spec, box) == expected
    assert merged == [x0 for x0 in range(-6, 8) if x0 % 2]


def test_one_cell_high_box_marks_rows_without_lines(monkeypatch):
    # each row of this box is one cell: the lattices mark the rows they
    # meet, and no line table is built
    spec, box = preset("rect-demo"), Box((0, 0), (19999, 0))
    expected = bytearray(map(spec.covered, box.points()))
    monkeypatch.setattr(windows, "_box_lines", refuse_lines)
    assert covered_flags(spec, box) == expected


def test_tall_box_line_table_stays_bounded():
    # a box whose last side is 1 has one line per cell; the first cells are
    # drawn lazily and the lines built and walked in chunks of at most
    # _CHUNK_LINES, so the peak memory beyond the flags does not grow with
    # the first side (it stays near 1.6 MB here)
    spec = parse_family(
        "dim 2\nrect [3,1]\nstatic [[1,0],[1,2]]\nrecttemplate [t,t] params=primes\ntransform [[1,0],[2,1]]\n"
    )
    peaks = []
    for h in (9000, 36000):
        box = Box((-(h // 2), 5), (h - 1 - h // 2, 5))
        tracemalloc.start()
        try:
            flags = covered_flags(spec, box)
            peaks.append(tracemalloc.get_traced_memory()[1] - box.volume)
        finally:
            tracemalloc.stop()
        assert flags == bytearray(map(spec.covered, box.points()))
    assert peaks[1] - peaks[0] < 2 * 10**5 and max(peaks) < 2.5 * 10**6


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

    def record(spec, box, lo, hi):
        slabs.append((box.lo[0], box.hi[0]))
        return sieve(spec, box, lo, hi)

    sieve = windows._Sieve
    monkeypatch.setattr(windows, "_Sieve", record)
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
    # the grids of both sides count: 841^2 + 200041^2 cells
    with pytest.raises(TooLargeError, match="^combined grid volume 40017108962 exceeds 1000000$"):
        density_profile(preset("ex2"), [400, 100000], Box.centered(20, 2), cell_limit=10**6)
    # every grid of the sides 0..799 fits the default limit, the largest
    # 1599^2 cells, but their crops and sums read 682 666 400 cells
    with pytest.raises(TooLargeError, match="^combined grid volume 682666400 exceeds 100000000$"):
        density_profile(preset("ex2"), range(800), Box((0, 0), (0, 0)))
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


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_density_profile_sieves_its_largest_grid_once(data):
    spec = data.draw(specs(dims=(1, 2, 3)))
    shift_box = data.draw(boxes(spec.dim, max_half={1: 6, 2: 2, 3: 1}[spec.dim]))
    sides = sorted(data.draw(st.sets(st.integers(0, 4), min_size=1, max_size=3)))
    sieved = []
    flags = windows.covered_flags
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(windows, "covered_flags", lambda spec, box: sieved.append(box) or flags(spec, box))
        profile = density_profile(spec, sides, shift_box)
    n = sides[-1]
    assert sieved == [Box(tuple(a - n for a in shift_box.lo), tuple(b + n for b in shift_box.hi))]
    # each side's row as its own one-side profile, which sieves its own grid
    assert list(profile.rows) == [density_profile(spec, [n], shift_box).rows[0] for n in sides]


def direct_window_counts(flags, sides, width):
    """Every sub-grid sum of side width, row-major by the lowest corner,
    one cell at a time."""
    grid = Box((0,) * len(sides), tuple(s - 1 for s in sides))
    corners = Box(grid.lo, tuple(s - width for s in sides))
    return [
        sum(flags[grid.index_of(tuple(map(add, x, d)))] for d in product(range(width), repeat=len(sides)))
        for x in corners.points()
    ]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_window_counts_equal_direct_sums(data):
    m = data.draw(st.sampled_from((1, 2, 3)))
    sides = [data.draw(st.integers(1, {1: 40, 2: 9, 3: 5}[m])) for _ in range(m)]
    width = data.draw(st.integers(1, min(sides)))
    volume = prod(sides)
    flags = bytes(data.draw(st.lists(st.sampled_from((0, 1, 1)), min_size=volume, max_size=volume)))
    assert list(windows._window_counts(flags, sides, width)) == direct_window_counts(flags, sides, width)


@pytest.mark.parametrize("sides, width, size", [
    ((300,), 255, 1),
    ((300,), 256, 2),
    ((20, 20), 15, 1),
    ((20, 20), 16, 2),
    ((9, 9, 9), 6, 1),
    ((9, 9, 9), 7, 2),
    ((70000,), 65535, 2),
    ((70000,), 65536, 4),
    ((300, 300), 256, 4),
])
def test_window_counts_fields_hold_full_windows(sides, width, size):
    # every cell covered: each sum is width**m, the most a field must hold,
    # next to fields just as full
    counts = windows._window_counts(b"\x01" * prod(sides), sides, width)
    assert counts.itemsize == size
    assert list(counts) == [width ** len(sides)] * prod(s - width + 1 for s in sides)


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
