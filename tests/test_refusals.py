"""Every refusal of malformed input, one row each: the call, the exception
it raises and the message.  The ``InconsistencyError`` guards are left out,
since no input reaches them."""

from fractions import Fraction

import pytest

from bfree import cli
from bfree.errors import FamilyParseError, InvalidCoverError, NotCoprimeError
from bfree.families import (
    Explicit,
    FamilySpec,
    Geometric,
    Primes,
    Rectangular,
    Template,
    parse_family,
    preset,
)
from bfree.lattices import Lattice, UnimodularMap, hnf, intersect_all
from bfree.numtheory import crt_integers, iroot
from bfree.proximality import check_covering, check_fixed_translate
from bfree.quadratic import QuadIdeal, QuadraticRing, principal
from bfree.windows import Box, DensityProfile, FreeWindow, ProfileRow, Shape, density_profile

DIAG_2 = Lattice.from_diagonal((2,))
DIAG_22 = Lattice.from_diagonal((2, 2))
ROW = ProfileRow(1, (0,), Fraction(1))
NOT_SQUARE = "basis must be a nonempty square matrix"
ALL_ZERO = "all constraint values are zero"

REFUSALS = {
    # lattices
    "lattice-not-square": (lambda: Lattice(((1, 0),)), ValueError, NOT_SQUARE),
    "lattice-not-triangular": (lambda: Lattice(((1, 1), (0, 1))), ValueError, "basis must be lower triangular"),
    "lattice-unreduced": (
        lambda: Lattice(((2, 0), (2, 1))), ValueError, r"off-diagonal entries must be reduced into \[0, diagonal\)"
    ),
    "diagonal-empty": (lambda: Lattice.from_diagonal(()), ValueError, NOT_SQUARE),
    "diagonal-zero": (lambda: Lattice.from_diagonal((0, 1)), ValueError, "diagonal entries must be positive"),
    "hnf-dim-0": (lambda: hnf([], dim=0), ValueError, NOT_SQUARE),
    "hnf-mixed-dims": (lambda: hnf([(1, 0), (1,)]), ValueError, "generators of mixed dimension"),
    "intersect-none": (lambda: intersect_all([]), ValueError, "need at least one lattice"),
    "map-dims": (lambda: UnimodularMap.identity(2).apply(DIAG_2), ValueError, "dimension mismatch"),
    # numtheory
    "iroot-negative": (lambda: iroot(-1, 2), ValueError, "iroot of a negative number"),
    "crt-lengths": (lambda: crt_integers([1], [2, 3]), ValueError, "residue and modulus lists differ in length"),
    "crt-modulus-0": (lambda: crt_integers([1], [0]), ValueError, "moduli must be positive"),
    "crt-not-coprime": (
        lambda: crt_integers([1, 1], [2, 4]), NotCoprimeError, r"moduli are not pairwise coprime \(gcd 2\)"
    ),
    # parameter sequences; candidates refuse all-zero constraints at the call
    "primes-exclude-4": (lambda: Primes(exclude=(4,)), ValueError, "exclusions must be primes"),
    "primes-all-zero": (lambda: Primes().candidates(((0, 1),)), ValueError, ALL_ZERO),
    "geometric-negative-start": (lambda: Geometric(2, -1), ValueError, "exponent offset must be >= 0"),
    "geometric-all-zero": (lambda: Geometric(2).candidates(((0, 2),)), ValueError, ALL_ZERO),
    "explicit-zero": (lambda: Explicit((0,)), ValueError, "parameters must be positive"),
    "explicit-all-zero": (lambda: Explicit((2,)).candidates(((0, 1),)), ValueError, ALL_ZERO),
    # entries and families
    "rect-zero": (lambda: Rectangular((0, 1)), ValueError, "rectangular entries must be positive"),
    "template-exponents": (
        lambda: Template(DIAG_22, (1,), Primes()), ValueError, "a template needs one exponent e >= 0 per row"
    ),
    "template-two-scaled-rows": (
        lambda: Template(hnf([(2, 1), (0, 2)]), (1, 1), Primes()),
        ValueError,
        "a non-diagonal base scales exactly one row",
    ),
    "spec-dim-0": (lambda: FamilySpec(0, ()), ValueError, "dimension must be positive"),
    "spec-entry-dims": (lambda: FamilySpec(2, (Rectangular((2,)),)), ValueError, "entry dimension mismatch"),
    "spec-transform-dims": (
        lambda: FamilySpec(1, (Rectangular((2,)),), UnimodularMap.identity(2)),
        ValueError,
        "transform dimension mismatch",
    ),
    "spec-point-dims": (lambda: preset("ex2").covered((1,)), ValueError, "point dimension mismatch"),
    "parse-scale-row": (
        lambda: parse_family("dim 1\ntemplate base=[[2]] scale=(2,2) params=primes\n"),
        FamilyParseError,
        "scaled position out of range",
    ),
    # proximality
    "covers-none": (lambda: check_covering(preset("ex2"), []), InvalidCoverError, "need at least one cover"),
    "covers-dims": (lambda: check_covering(preset("ex2"), [DIAG_2]), InvalidCoverError, "cover dimension mismatch"),
    "translate-dims": (
        lambda: check_fixed_translate(preset("ex2"), (0,), DIAG_22), ValueError, "point dimension mismatch"
    ),
    # windows
    "shape-repeated": (lambda: Shape(((0, 0), (0, 0))), ValueError, "shape offsets must be distinct"),
    "shape-mixed-dims": (lambda: Shape(((0, 0), (1,))), ValueError, "shape offsets of mixed dimension"),
    "shape-ranges": (lambda: Shape.parse_box("0:1x0:1", dim=3), ValueError, "shape has 2 ranges, expected 3"),
    "window-payload": (
        lambda: FreeWindow(Box((0,), (7,)), b""), ValueError, "bit payload does not match the box volume"
    ),
    "window-grid-3d": (
        lambda: FreeWindow(Box((0, 0, 0), (0, 0, 0)), b"\x00").to_csv(),
        ValueError,
        "grid export only supports dimensions 1 and 2",
    ),
    "profile-sides": (lambda: DensityProfile((ROW, ROW)), ValueError, "sides must be strictly increasing"),
    "profile-ratio": (
        lambda: DensityProfile((ProfileRow(1, (0,), Fraction(3, 2)),)), ValueError, r"ratios must lie in \[0, 1\]"
    ),
    "profile-shift-dims": (
        lambda: density_profile(preset("ex2"), [1], Box((0,), (1,))), ValueError, "shift box dimension mismatch"
    ),
    # the command line's argument types
    "cli-sides": (lambda: cli._sides_list("3,2"), ValueError, "sides must be strictly increasing"),
    # quadratic
    "ideal-module-dims": (
        lambda: QuadIdeal(QuadraticRing(-1), DIAG_2), ValueError, "ideal module must be 2-dimensional"
    ),
    "ideal-rings": (
        lambda: principal(QuadraticRing(-1), (2, 0)).sum(principal(QuadraticRing(2), (2, 0))),
        ValueError,
        "ideals live in different rings",
    ),
}


@pytest.mark.parametrize(("call", "error", "message"), REFUSALS.values(), ids=REFUSALS.keys())
def test_malformed_input_is_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()
