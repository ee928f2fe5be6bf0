"""Shared test helpers: a random unimodular map and hypothesis strategies
for random family entries."""

from hypothesis import assume
from hypothesis import strategies as st

from bfree.families import Explicit, Geometric, Primes, RectEntry, RectTemplate, Rectangular, Static, Template
from bfree.lattices import Lattice, UnimodularMap

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
def param_seqs(draw):
    kind = draw(st.sampled_from(("primes", "geometric", "explicit")))
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
