"""Shared test helpers: a random unimodular map, hypothesis strategies
for random family entries, and the hard families (``hard_family``,
``hard_families``) that random entries almost never give."""

import dataclasses
from math import gcd

from hypothesis import assume, event
from hypothesis import strategies as st

from bfree.families import (
    Explicit,
    FamilySpec,
    Geometric,
    Primes,
    RectEntry,
    RectTemplate,
    Rectangular,
    Static,
    Template,
    odd_primes,
)
from bfree.lattices import Lattice, UnimodularMap, hnf

# every value of at most four significant bits (m * 2^j with m < 16), in
# increasing order, up to 15 * 2^17, past the line sieve's trial cap of 10^5:
# the sizes its trial-prime tables may take
FOUR_BIT = sorted({m << j for m in range(1, 16) for j in range(18)})


def random_unimodular(rng, m: int, ops: int = 8) -> UnimodularMap:
    """Random unimodular matrix built from elementary column operations;
    deterministic under a seeded rng."""
    cols = [[1 if i == j else 0 for i in range(m)] for j in range(m)]
    for _ in range(max(ops, 1)):
        kind = rng.randrange(3)
        i, j = rng.randrange(m), rng.randrange(m)
        if kind == 0 and i != j:
            k = rng.randint(-3, 3)
            for r in range(m):
                cols[i][r] += k * cols[j][r]
        elif kind == 1:
            cols[i], cols[j] = cols[j], cols[i]
        else:
            cols[i] = [-x for x in cols[i]]
    rows = tuple(tuple(cols[j][i] for j in range(m)) for i in range(m))
    return UnimodularMap(rows)


@st.composite
def param_seqs(draw, explicit=True):
    """A parameter sequence; with explicit=False only an infinite one, which
    answers the divisibility protocol (candidates, divides, power_hits)."""
    kind = draw(st.sampled_from(("primes", "geometric", "explicit")[: 3 if explicit else 2]))
    if kind == "primes":
        return Primes(tuple(draw(st.lists(st.sampled_from((2, 3, 5, 7)), unique=True, max_size=2))))
    if kind == "geometric":
        return Geometric(draw(st.integers(2, 5)), draw(st.integers(0, 2)))
    return Explicit(tuple(sorted(draw(st.sets(st.integers(1, 40), min_size=1, max_size=4)))))


@st.composite
def canonical_lattices(draw, m, max_diag=4):
    rows = []
    for i in range(m):
        d = draw(st.integers(1, max_diag))
        rows.append(tuple(draw(st.integers(0, d - 1)) if j < i else d * (i == j) for j in range(m)))
    return Lattice(tuple(rows))


def is_diagonal_entry(entry) -> bool:
    """Whether the entry is a diagonal lattice or a template over a diagonal base."""
    return (entry.base if isinstance(entry, Template) else entry.lattice).is_diagonal()


def scaled_row(m: int, row: int) -> tuple[int, ...]:
    """The exponents of a template that scales one row by t."""
    return tuple(int(i == row) for i in range(m))


@st.composite
def entries(draw, m):
    kind = draw(st.sampled_from(("static", "rect", "recttemplate", "template")))
    try:
        if kind == "static":
            return Static(draw(canonical_lattices(m)))
        if kind == "rect":
            return Rectangular(tuple(draw(st.integers(1, 5)) for _ in range(m)))
        if kind == "recttemplate":
            slots = tuple(RectEntry(draw(st.integers(1, 3)), draw(st.integers(0, 3))) for _ in range(m))
            return RectTemplate(slots, draw(param_seqs()))
        return Template(draw(canonical_lattices(m)), scaled_row(m, draw(st.integers(0, m - 1))), draw(param_seqs()))
    except ValueError:  # improper member or no parameterised slot
        assume(False)


# ---------------------------------------------------------------------------
# hard families: each shape is built in Z^2 and lifted to Z^m as L x Z^(m-2)
# (see _lift), so its union and free set are those of the 2-d shape times
# Z^(m-2)

HARD_SHAPES = ("span-all", "union-all", "hyperplanes", "peelable")


def _lift(columns, m: int) -> Lattice:
    """The 2-d lattice with these columns, times Z^(m-2)."""
    cols = [tuple(c) + (0,) * (m - 2) for c in columns]
    cols += [tuple(int(i == j) for i in range(m)) for j in range(2, m)]
    return hnf(cols, dim=m)


def _first_row_template(rng, m: int, q_choices, params) -> Template:
    """A template whose base has columns (1, c), (0, q) with gcd(c, q) = 1
    (lifted), scaling its first row: member t has columns (t, c), (0, q)."""
    q = rng.choice(q_choices)
    c = rng.choice([c for c in range(1, q) if gcd(c, q) == 1])
    return Template(_lift([(1, c), (0, q)], m), (1,) + (0,) * (m - 1), params)


def _rects(rng, m: int, most: int) -> list:
    """Up to ``most`` rect entries a Z x b Z (lifted), at least one."""
    out = []
    for _ in range(rng.randint(1, most)):
        a, b = rng.choice([(a, b) for a in range(1, 6) for b in range(1, 6) if (a, b) != (1, 1)])
        out.append(Static(_lift([(a, 0), (0, b)], m)))
    return out


def _index_p_sublattices(p: int) -> list:
    """Columns of the p + 1 sublattices of index p of Z^2 (p prime): pZ x Z
    and {(x, kx) + (0, p)Z} for k < p.  Their union is Z^2."""
    return [[(p, 0), (0, 1)]] + [[(1, k), (0, p)] for k in range(p)]


def _transformed(rng, m: int, entries) -> FamilySpec:
    """The entries in random order, under a random unimodular transform
    half the time."""
    entries = list(entries)
    rng.shuffle(entries)
    return FamilySpec(m, tuple(entries), random_unimodular(rng, m) if rng.random() < 0.5 else None)


def hard_family(rng, m: int, shape: str) -> tuple[FamilySpec, dict]:
    """A family of the given shape (HARD_SHAPES), m >= 2, drawn with rng
    (a random.Random), and what a brute-force judge needs to know of it:

    * ``span-all``: a non-diagonal template over all primes whose span is
      Z^m, plus rect entries (as in ``template base=[[1,1],[0,2]]
      scale=(1,1) params=primes; rect [1,3]``); info: the template;
    * ``union-all``: all p + 1 sublattices of index p of Z^2, p = 2 or 3,
      one of them maybe refined into the p' + 1 sublattices of index p' of
      itself, plus maybe a template, so the static entries alone cover Z^m;
      info: {};
    * ``hyperplanes``: ``ex2``'s entries, or ``ex1``'s with the geometric
      tail from 2**s, s <= 1, plus maybe rects; in entry coordinates every
      free point q has form . (q_0, q_1) in values (ex2: y - x = +-2; ex1:
      x in {-2, 0, 2}, or x = 0 when s = 0); info: form and values;
    * ``peelable``: a first-row template with its least parameters peeled
      off as static members, plus rect entries, so every entry's span is
      proper (item 2's route B): over primes (2 peeled; unpeeled, the span
      is Z^m) or over a geometric sequence (one or two terms peeled);
      info: the unpeeled spelling ``whole`` and both templates.

    Every family's entries come in random order, under a random transform
    half the time; ``hyperplanes``' form and values are in entry
    coordinates (see FamilySpec.pullback)."""
    if m < 2:
        raise ValueError("hard families are at least 2-dimensional")
    if shape == "span-all":
        template = _first_row_template(rng, m, (2, 3, 4, 5), Primes())
        return _transformed(rng, m, [template, *_rects(rng, m, 2)]), {"template": template}
    if shape == "union-all":
        lattices = [_lift(cols, m) for cols in _index_p_sublattices(rng.choice((2, 3)))]
        if rng.random() < 0.5:  # refine one member L = B Z^2 into B times the index-q sublattices
            (b0, b1), q = lattices.pop(rng.randrange(len(lattices))).columns[:2], rng.choice((2, 3))
            for cols in _index_p_sublattices(q):
                lattices.append(_lift([[u * x + v * y for x, y in zip(b0[:2], b1[:2])] for u, v in cols], m))
        extra = [_first_row_template(rng, m, (2, 3, 4, 5), Primes())] if rng.random() < 0.5 else []
        return _transformed(rng, m, [*map(Static, lattices), *extra]), {}
    if shape == "hyperplanes":
        if rng.random() < 0.5:
            entries = [Static(_lift([(2, 0), (0, 1)], m)), Static(_lift([(1, 0), (0, 2)], m)),
                       Template(_lift([(1, 1), (0, 2)], m), (0, 1) + (0,) * (m - 2), Primes())]
            info = {"form": (-1, 1), "values": {-2, 2}}
        else:
            s = rng.choice((0, 1))
            base = _lift([(2, 1), (0, 2)], m)
            exps = (1,) + (0,) * (m - 1)
            entries = [Static(_lift([(1, 1), (0, 2)], m)), Static(_lift([(1, 0), (0, 2)], m)),
                       Template(base, exps, odd_primes()), Template(base, exps, Geometric(2, s))]
            info = {"form": (1, 0), "values": {-2, 0, 2} if s else {0}}
        extra = _rects(rng, m, 2) if rng.random() < 0.5 else []
        return _transformed(rng, m, entries + extra), info
    if shape == "peelable":
        if rng.random() < 0.5:
            whole = _first_row_template(rng, m, (2, 4), Primes())
            peeled, rest_params = [2], Primes((2,))
        else:
            b, s, k = rng.choice((2, 3)), rng.choice((0, 1)), rng.choice((1, 2))
            whole = _first_row_template(rng, m, (2, 3, 4), Geometric(b, s))
            peeled, rest_params = [b ** (s + i) for i in range(k)], Geometric(b, s + k)
        rest = dataclasses.replace(whole, params=rest_params)
        rects = _rects(rng, m, 2)
        spec = _transformed(rng, m, [rest, *map(Static, map(whole.member, peeled)), *rects])
        info = {"whole": FamilySpec(m, (whole, *rects), spec.transform), "template": whole, "rest": rest}
        return spec, info
    raise ValueError(f"unknown shape {shape!r}")


@st.composite
def hard_families(draw, m):
    """A hard_family of a drawn shape, labelled with hypothesis.event."""
    shape = draw(st.sampled_from(HARD_SHAPES))
    event(f"hard family: {shape}")
    return hard_family(draw(st.randoms(use_true_random=False)), m, shape)[0]
