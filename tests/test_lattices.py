import random
from fractions import Fraction
from itertools import islice, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bfree.errors import NotCoprimeError, RankDeficientError
from bfree.lattices import (
    Lattice,
    UnimodularMap,
    back_substitute,
    combination,
    crt,
    hnf,
    intersect_all,
    mixed_radix,
    split_in_sum,
)
from bfree.numtheory import crt_integers
from bfree.windows import Box

from helpers import canonical_lattices, random_unimodular


# ---------------------------------------------------------------------------
# brute-force oracles, independent of the canonical-form code paths


def subgroup_points(generators, coeff_bound=8, box_bound=16):
    """All integer combinations with small coefficients, clipped to a box."""
    m = len(generators[0])
    pts = set()
    for ks in product(range(-coeff_bound, coeff_bound + 1), repeat=len(generators)):
        vec = [0] * m
        for k, g in zip(ks, generators):
            for r in range(m):
                vec[r] += k * g[r]
        if all(abs(x) <= box_bound for x in vec):
            pts.add(tuple(vec))
    return pts


def solve_rational(columns, p):
    """Rational solve of B x = p; membership oracle: all entries integral."""
    m = len(p)
    a = [[Fraction(columns[j][i]) for j in range(m)] + [Fraction(p[i])] for i in range(m)]
    for col in range(m):
        piv = next(r for r in range(col, m) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(m):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[r][m] for r in range(m)]


def random_lattice(rng, m, max_diag=6):
    rows = []
    for i in range(m):
        d = rng.randint(1, max_diag)
        row = [rng.randrange(d) if j < i else (d if j == i else 0) for j in range(m)]
        rows.append(tuple(row))
    return Lattice(tuple(rows))


# ---------------------------------------------------------------------------
# hnf


def test_hnf_diagonal():
    lat = hnf([(2, 0), (0, 2)])
    assert lat.basis == ((2, 0), (0, 2))
    assert lat.index == 4


def test_hnf_triangular():
    lat = hnf([(1, 1), (0, 2)])
    assert lat.columns == ((1, 1), (0, 2))
    assert lat.index == 2


def test_hnf_redundant_generator_same_subgroup():
    lat3 = hnf([(2, 1), (0, 2), (4, 0)])
    lat2 = hnf([(2, 1), (0, 2)])
    assert lat3 == lat2
    assert lat3.index == 4
    # brute-force: the generator sets reach the same points; generous
    # coefficient bound so the small box is fully reachable in both
    assert subgroup_points(
        [(2, 1), (0, 2), (4, 0)], coeff_bound=12, box_bound=8
    ) == subgroup_points([(2, 1), (0, 2)], coeff_bound=12, box_bound=8)


def test_hnf_idempotent():
    lat = hnf([(3, 1), (0, 4)])
    assert hnf(lat.columns) == lat


def test_hnf_rank_deficient():
    with pytest.raises(RankDeficientError):
        hnf([(1, 1)])
    with pytest.raises(RankDeficientError):
        hnf([(0, 1), (0, 2)])
    with pytest.raises(RankDeficientError):
        hnf([(2, 4), (1, 2)])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hnf_canonicity_under_unimodular_mixing(data):
    seed = data.draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    m = rng.choice((2, 3))
    lat = random_lattice(rng, m)
    mix = random_unimodular(rng, m, ops=10)
    # right-multiplying the basis by a unimodular matrix keeps the subgroup
    mixed_cols = []
    for j in range(m):
        col = [0] * m
        for k in range(m):
            c = mix.rows[j][k]
            for r in range(m):
                col[r] += c * lat.columns[k][r]
        mixed_cols.append(tuple(col))
    assert hnf(mixed_cols) == lat


# ---------------------------------------------------------------------------
# index


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-20, 20), min_size=m, max_size=m), min_size=m, max_size=m + 3
        )
    )
)
def test_hnf_agrees_with_sympy(gens):
    # sympy's form is upper triangular, so compare the lattices: equal index
    # and every sympy column inside ours
    from sympy import Matrix
    from sympy.matrices.normalforms import hermite_normal_form

    a = Matrix(gens).T
    assume(a.rank() == a.rows)
    lat = hnf(gens)
    h = hermite_normal_form(a)
    assert h.shape == (lat.dim, lat.dim)
    assert abs(h.det()) == lat.index
    assert all(lat.contains(tuple(h[:, j])) for j in range(h.cols))


def test_index_examples():
    assert Lattice.from_diagonal((2, 3)).index == 6
    assert hnf([(1, 1), (0, 6)]).index == 6
    assert Lattice.whole(2).index == 1


def test_index_counts_cosets_bruteforce():
    # residues of [0,6)^2 modulo the lattice, classified via subgroup points
    gens = [(1, 1), (0, 6)]
    pts = subgroup_points(gens, coeff_bound=12, box_bound=24)
    residues = set()
    for p in product(range(6), repeat=2):
        rep = min(
            q for q in product(range(6), repeat=2) if (p[0] - q[0], p[1] - q[1]) in pts
        )
        residues.add(rep)
    assert len(residues) == hnf(gens).index == 6


# ---------------------------------------------------------------------------
# sum / intersect / coprime


def test_sum_absorbs():
    lat = hnf([(3, 1), (0, 5)])
    assert lat.sum(Lattice.whole(2)) == Lattice.whole(2)
    assert hnf([(2, 0), (0, 1)]).sum(hnf([(1, 0), (0, 2)])) == Lattice.whole(2)


def test_sum_bruteforce_example():
    a = hnf([(1, 1), (0, 6)])
    b = hnf([(1, 1), (0, 10)])
    s = a.sum(b)
    assert s == hnf([(1, 1), (0, 2)])
    assert s.index == 2
    assert subgroup_points(
        [(1, 1), (0, 6), (0, 10)], coeff_bound=15, box_bound=8
    ) == subgroup_points([(1, 1), (0, 2)], coeff_bound=15, box_bound=8)


def test_intersect_rectangular():
    a = Lattice.from_diagonal((2, 1))
    b = Lattice.from_diagonal((1, 3))
    assert a.intersect(b) == Lattice.from_diagonal((2, 3))
    assert a.intersect(b).index == 6


def test_intersect_identity():
    lat = hnf([(2, 1), (0, 3)])
    assert lat.intersect(Lattice.whole(2)) == lat


def test_intersect_bruteforce():
    a = hnf([(1, 1), (0, 2)])
    b = Lattice.from_diagonal((2, 1))
    got = a.intersect(b)
    assert got.index == 4
    expected = {
        p
        for p in subgroup_points([(1, 1), (0, 2)], coeff_bound=10)
        if p in subgroup_points([(2, 0), (0, 1)], coeff_bound=12)
    }
    inside = {p for p in expected if all(abs(x) <= 8 for x in p)}
    points = (combination(got.columns, ks) for ks in Box.centered(6, 2).points())
    assert inside == {p for p in points if all(abs(x) <= 8 for x in p)}


def test_index_product_law_randomized():
    rng = random.Random(7)
    for _ in range(300):
        m = rng.choice((2, 3))
        a, b = random_lattice(rng, m), random_lattice(rng, m)
        assert a.intersect(b).index * a.sum(b).index == a.index * b.index


def test_coprime_examples():
    assert Lattice.from_diagonal((2, 1)).coprime(Lattice.from_diagonal((1, 2)))
    assert not hnf([(1, 1), (0, 6)]).coprime(hnf([(1, 1), (0, 10)]))
    assert Lattice.from_diagonal((3, 3)).coprime(Lattice.from_diagonal((5, 5)))


# ---------------------------------------------------------------------------
# membership / cosets


def test_contains_examples():
    lat = hnf([(2, 1), (0, 2)])
    assert lat.contains((4, 2))
    assert lat.contains((0, 0))
    assert not hnf([(1, 1), (0, 6)]).contains((2, 5))


def test_contains_matches_rational_solve():
    rng = random.Random(13)
    for _ in range(200):
        m = rng.choice((2, 3))
        lat = random_lattice(rng, m, max_diag=4)
        p = tuple(rng.randint(-12, 12) for _ in range(m))
        oracle = all(x.denominator == 1 for x in solve_rational(lat.columns, p))
        assert lat.contains(p) == oracle


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda m: st.tuples(
    st.lists(st.integers(1, 12), min_size=m, max_size=m),
    st.lists(st.integers(-10**6, 10**6), min_size=m, max_size=m),
    st.lists(st.integers(-2, 2), min_size=m, max_size=m),
    st.booleans(),
)))
def test_diagonal_contains_is_a_zero_reduction(case):
    # a diagonal lattice answers membership in one pass over the
    # coordinates: p lies in it exactly when its canonical rep is 0, and a
    # point of another dimension is refused as reduce refuses it
    diagonal, ks, offsets, checked = case
    m = len(diagonal)
    lat = Lattice.from_diagonal(diagonal)
    if checked:  # the same lattice from the checked constructor
        lat = Lattice(tuple(tuple(d if i == j else 0 for j in range(m)) for i, d in enumerate(diagonal)))
    assert lat.is_diagonal()
    p = tuple(d * k + r for d, k, r in zip(diagonal, ks, offsets))
    assert lat.contains(p) == (lat.reduce(p) == (0,) * m)
    assert lat.contains(tuple(d * k for d, k in zip(diagonal, ks)))
    for other in (p + (0,), p[:-1]):
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            lat.contains(other)
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            lat.reduce(other)


def test_coset_reps_diag():
    reps = list(Lattice.from_diagonal((2, 2)).iter_coset_reps())
    assert reps == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert list(Lattice.whole(3).iter_coset_reps()) == [(0, 0, 0)]
    # the box prod [0, d_i), first coordinate fastest
    reps = list(Lattice.from_diagonal((3, 4, 5)).iter_coset_reps())
    assert reps == sorted(product(range(3), range(4), range(5)), key=lambda v: v[::-1])
    # lazy whatever the diagonal: a scan may stop long before the end
    huge = Lattice.from_diagonal((10**12, 2, 10**12)).iter_coset_reps()
    assert list(islice(huge, 3)) == [(0, 0, 0), (1, 0, 0), (2, 0, 0)]


def test_coset_reps_pairwise_incongruent():
    lat = hnf([(1, 1), (0, 2)])
    reps = list(lat.iter_coset_reps())
    assert len(reps) == 2
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            diff = tuple(a - b for a, b in zip(reps[i], reps[j]))
            assert not lat.contains(diff)


def test_reduce_is_canonical():
    lat = hnf([(2, 1), (0, 3)])
    for p in product(range(-6, 7), repeat=2):
        r = lat.reduce(p)
        assert 0 <= r[0] < 2 and 0 <= r[1] < 3
        assert lat.contains(tuple(a - b for a, b in zip(p, r)))


def test_reduce_and_apply_point_refuse_a_point_of_another_dimension():
    lat = Lattice.from_diagonal((2, 2))
    shear = UnimodularMap(((1, 1), (0, 1)))
    for p in ((3, 3, 5), (3,)):
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            lat.reduce(p)
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            shear.apply_point(p)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_back_substitution_reduces_into_the_box_and_recombines_members(data):
    m = data.draw(st.integers(1, 4))
    lat = data.draw(canonical_lattices(m, max_diag=7))
    coords = st.integers(-10**12, 10**12) | st.integers(-30, 30)
    p = tuple(data.draw(st.lists(coords, min_size=m, max_size=m)))
    r = lat.reduce(p)
    assert all(0 <= x < d for x, d in zip(r, lat.diagonal))
    assert lat.contains(tuple(a - b for a, b in zip(p, r)))
    # a point of the lattice back-substitutes to 0 through its own coefficients
    ks = data.draw(st.lists(coords, min_size=m, max_size=m))
    q = combination(lat.columns, ks)
    res = list(q)
    assert back_substitute(lat.columns, res) == ks
    assert res == [0] * m and combination(lat.columns, ks) == q


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-5, 5), st.integers(0, 4)), min_size=0, max_size=4))
def test_mixed_radix_is_product_first_coordinate_fastest(bounds):
    ranges = [range(a, a + n) for a, n in bounds]
    assert list(mixed_radix(ranges)) == [p[::-1] for p in product(*reversed(ranges))]


def test_mixed_radix_is_lazy_on_huge_ranges():
    points = mixed_radix([range(7, 10**12), range(-3, 10**12 - 3)])
    assert next(points) == (7, -3)
    assert list(islice(points, 2)) == [(8, -3), (9, -3)]


def test_membership_vs_coset_reduction():
    # membership agrees with "reduces to the origin representative"
    rng = random.Random(3)
    for _ in range(200):
        m = rng.choice((2, 3))
        lat = random_lattice(rng, m, max_diag=4 if m == 2 else 3)
        assert lat.index <= 64 or True
        p = tuple(rng.randint(-10, 10) for _ in range(m))
        assert lat.contains(p) == (lat.reduce(p) == (0,) * m)


# ---------------------------------------------------------------------------
# transport


def test_transport_identity():
    lat = hnf([(3, 2), (0, 4)])
    assert UnimodularMap.identity(2).apply(lat) == lat


def test_transport_shear_of_rectangles():
    for k in (1, 2, 3):
        a_map = UnimodularMap(((1, 0), (k, 1)))
        for a, d in ((3, 5), (2, 7)):
            lat = Lattice.from_diagonal((a, d))
            got = a_map.apply(lat)
            assert got == hnf([(a, k * a), (0, d)])
            assert got.index == lat.index


def test_transport_preserves_index_and_coprimality():
    rng = random.Random(99)
    for _ in range(100):
        m = 2
        a, b = random_lattice(rng, m), random_lattice(rng, m)
        u = random_unimodular(rng, m)
        assert u.apply(a).index == a.index
        assert a.coprime(b) == u.apply(a).coprime(u.apply(b))


def test_unimodular_validation_and_inverse():
    with pytest.raises(ValueError):
        UnimodularMap(((2, 0), (0, 1)))
    u = UnimodularMap(((1, 0), (3, 1)))
    inv = u.inverse()
    assert inv.rows == ((1, 0), (-3, 1))


@st.composite
def square_matrices(draw):
    """Small square matrices, half of them unimodular by construction."""
    m = draw(st.integers(1, 4))
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 10**6)))
        return random_unimodular(rng, m, ops=draw(st.integers(0, 12))).rows
    entry = st.integers(-3, 3)
    row = st.tuples(*([entry] * m))
    return tuple(draw(st.lists(row, min_size=m, max_size=m)))


@settings(max_examples=200, deadline=None)
@given(square_matrices())
def test_unimodular_map_accepts_exactly_determinant_pm1(rows):
    from sympy import Matrix

    try:
        UnimodularMap(rows)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == (Matrix(rows).det() in (1, -1))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10**6), st.integers(0, 12))
def test_unimodular_inverse_equals_sympy(m, seed, ops):
    from sympy import Matrix

    u = random_unimodular(random.Random(seed), m, ops=ops)
    assert Matrix(u.inverse().rows) == Matrix(u.rows).inv()


def test_split_in_sum():
    a = Lattice.from_diagonal((2, 2))
    b = Lattice.from_diagonal((3, 3))
    parts = split_in_sum(a, b, (1, 1))
    assert parts is not None
    x, y = parts
    assert a.contains(x) and b.contains(y)
    assert tuple(i + j for i, j in zip(x, y)) == (1, 1)
    assert split_in_sum(a, Lattice.from_diagonal((4, 4)), (1, 0)) is None
    with pytest.raises(ValueError):
        split_in_sum(a, b, (1, 1, 0))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda m: st.tuples(
            canonical_lattices(m, max_diag=6),
            canonical_lattices(m, max_diag=6),
            st.tuples(*([st.integers(-30, 30)] * m)),
        )
    )
)
def test_split_in_sum_exactly_when_target_in_sum(case):
    a, b, target = case
    parts = split_in_sum(a, b, target)
    assert (parts is not None) == a.sum(b).contains(target)
    if parts is not None:
        x, y = parts
        assert a.contains(x) and b.contains(y)
        assert tuple(i + j for i, j in zip(x, y)) == target


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda m: st.tuples(
            canonical_lattices(m, max_diag=6),
            canonical_lattices(m, max_diag=6),
            st.lists(st.tuples(*([st.integers(-40, 40)] * m)), min_size=1, max_size=20),
        )
    )
)
def test_intersect_membership_is_membership_in_both(case):
    a, b, points = case
    both = a.intersect(b)
    for p in points:
        assert both.contains(p) == (a.contains(p) and b.contains(p))
    # its generators lie in both, so the intersection is no larger than a and b share
    assert all(a.contains(c) and b.contains(c) for c in both.columns)


@st.composite
def crt_systems(draw):
    """Congruence systems in dims 1-3, each lattice of index <= 200 and the
    indices multiplying to at most 2000, so a sweep of the intersection's
    cosets stays cheap.  Half of the systems are diagonal."""
    m = draw(st.integers(1, 3))
    diagonal = draw(st.booleans())
    budget = 2000
    lattices, residues = [], []
    for _ in range(draw(st.integers(1, 4))):
        cap = min(200, budget)
        rows = []
        for i in range(m):
            d = draw(st.one_of(st.integers(1, min(cap, 6)), st.integers(1, cap)))
            cap //= d
            rows.append(
                tuple(d if j == i else 0 if j > i or diagonal else draw(st.integers(0, d - 1)) for j in range(m))
            )
        lat = Lattice(tuple(rows))
        budget //= lat.index
        lattices.append(lat)
        residues.append(tuple(draw(st.integers(-50, 50)) for _ in range(m)))
    return lattices, residues


def solves(lattices, residues, p):
    return all(lat.contains(tuple(x - r for x, r in zip(p, res))) for lat, res in zip(lattices, residues))


@settings(max_examples=300, deadline=None)
@given(crt_systems())
def test_crt_solves_exactly_the_solvable_systems(system):
    lattices, residues = system
    meet = intersect_all(lattices)
    try:
        x = crt(lattices, residues)
    except NotCoprimeError:
        # the solutions would form a union of cosets of the intersection
        assert not any(solves(lattices, residues, p) for p in meet.iter_coset_reps())
        return
    assert solves(lattices, residues, x)
    assert meet.reduce(x) == x
    if all(lat.is_diagonal() for lat in lattices) and all(
        a.coprime(b) for i, a in enumerate(lattices) for b in lattices[i + 1 :]
    ):
        for axis in range(meet.dim):
            moduli = [lat.diagonal[axis] for lat in lattices]
            assert x[axis] == crt_integers([res[axis] % q for res, q in zip(residues, moduli)], moduli)


def test_crt_input_checks():
    a = Lattice.from_diagonal((2, 3))
    with pytest.raises(ValueError, match="differ in length"):
        crt([a, a], [(0, 0)])
    with pytest.raises(ValueError, match="at least one"):
        crt([], [])
    with pytest.raises(ValueError, match="dimension mismatch"):
        crt([a], [(0, 0, 0)])
    with pytest.raises(ValueError, match="dimension mismatch"):
        crt([a, Lattice.from_diagonal((5,))], [(0, 0), (1,)])


def test_serialization_roundtrip():
    lat = hnf([(2, 1), (0, 3)])
    assert Lattice.from_columns(lat.to_columns()) == lat


def recomputed_views(basis) -> dict:
    m = len(basis)
    diagonal = tuple(basis[i][i] for i in range(m))
    index = 1
    for d in diagonal:
        index *= d
    columns = tuple(tuple(basis[i][j] for i in range(m)) for j in range(m))
    diagonal_only = all(basis[i][j] == 0 for i in range(m) for j in range(m) if i != j)
    return {"basis": basis, "dim": m, "columns": columns, "diagonal": diagonal, "index": index, "_is_diagonal": diagonal_only}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_eliminated_lattices_equal_validated_ones_with_the_same_views(data):
    # hnf, intersect, sum and from_diagonal skip __post_init__'s checks; the
    # validating constructor accepts what they build, and every stored view
    # (with the types it has) equals its recomputation from the basis
    m = data.draw(st.integers(1, 4))
    coords = st.integers(-12, 12)
    gens = data.draw(st.lists(st.tuples(*[coords] * m), min_size=m, max_size=m + 2))
    a, b = data.draw(canonical_lattices(m, max_diag=9)), data.draw(canonical_lattices(m, max_diag=9))
    d = Lattice.from_diagonal(data.draw(st.tuples(*[st.integers(1, 20)] * m)))
    e = Lattice.from_diagonal(data.draw(st.tuples(*[st.integers(1, 20)] * m)))
    built = [a.intersect(b), a.sum(b), d, d.intersect(e), d.sum(e)]
    try:
        built.append(hnf(gens))
    except RankDeficientError:
        pass
    for lat in built:
        checked = Lattice(lat.basis)
        assert checked == lat and hash(checked) == hash(lat) and repr(checked) == repr(lat)
        assert vars(lat) == vars(checked) == recomputed_views(lat.basis)
        assert all(type(row) is tuple and all(type(x) is int for x in row) for row in lat.basis + lat.columns)


def diagonal_columns(diagonal):
    m = len(diagonal)
    return [tuple(e * (i == j) for i in range(m)) for j, e in enumerate(diagonal)]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda m: st.tuples(*[st.integers(1, 30)] * m)))
def test_from_diagonal_is_the_elimination_of_its_columns(diagonal):
    # from_diagonal stores its views without computing them; the
    # elimination of its columns works every one of them out
    got, want = Lattice.from_diagonal(diagonal), hnf(diagonal_columns(diagonal))
    for view in ("basis", "columns", "diagonal", "index", "dim"):
        assert getattr(got, view) == getattr(want, view)
    assert got.is_diagonal() and want.is_diagonal()
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    assert vars(got) == recomputed_views(want.basis)
    assert all(type(row) is tuple and all(type(x) is int for x in row) for row in (*got.basis, *got.columns, got.diagonal))


@st.composite
def canonical_bases(draw, m, diagonal):
    """A canonical triangular basis by rows; every entry below the diagonal
    0 when diagonal, else each drawn from [0, diagonal entry of its row)."""
    rows = []
    for i in range(m):
        d = draw(st.integers(1, 9))
        below = [0] * i if diagonal else [draw(st.integers(0, d - 1)) for _ in range(i)]
        rows.append(tuple(below + [d] + [0] * (m - i - 1)))
    return tuple(rows)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_views_of_columns_are_those_of_the_checked_basis(data):
    m, diagonal = data.draw(st.integers(1, 4)), data.draw(st.booleans())
    basis = data.draw(canonical_bases(m, diagonal))
    built, checked = Lattice._of_columns(tuple(zip(*basis))), Lattice(basis)
    assert vars(built) == vars(checked) == recomputed_views(basis)
    assert built.is_diagonal() == checked.is_diagonal() == (diagonal or all(basis[i][j] == 0 for i in range(m) for j in range(i)))
    assert built == checked and hash(built) == hash(checked) and repr(built) == repr(checked)


def eliminated(lat: Lattice) -> Lattice:
    """A copy of lat that does not know it is diagonal, so its intersect
    and sum run the elimination."""
    out = Lattice._of_columns(lat.columns)
    out.__dict__["_is_diagonal"] = False
    return out


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(lambda m: st.lists(st.tuples(*[st.integers(1, 60)] * m), min_size=2, max_size=2)))
def test_diagonal_intersect_and_sum_equal_the_elimination(diagonals):
    a, b = map(Lattice.from_diagonal, diagonals)
    for got, want in ((a.intersect(b), eliminated(a).intersect(eliminated(b))), (a.sum(b), eliminated(a).sum(eliminated(b)))):
        assert got == want and got.is_diagonal() and want.is_diagonal()
        assert vars(got) == vars(Lattice(want.basis)) == recomputed_views(want.basis)
    assert a.coprime(b) == eliminated(a).coprime(eliminated(b))


def test_diagonal_closed_forms_check_the_dimension():
    a, b = Lattice.from_diagonal((2, 3)), Lattice.from_diagonal((2,))
    for op in (a.intersect, a.sum, b.intersect, b.sum):
        with pytest.raises(ValueError, match="dimension mismatch"):
            op(b if op.__self__ is a else a)
