"""Exact arithmetic for B-free lattice systems.

The package computes free sets for families of finite-index lattices in Z^m
(and ideals in quadratic integer rings), searches and constructs zero
windows, and decides proximality of the associated subshifts where the
family schema admits an exact answer, producing machine-checkable
certificates either way.
"""

from .errors import (
    BFreeError,
    BadInputError,
    FactorizationError,
    FamilyParseError,
    InconsistencyError,
    InvalidCoverError,
    NotAZeroWindowError,
    NotCoprimeError,
    NotEnoughIdealsError,
    NotPairwiseCoprimeError,
    NotRectangularError,
    RankDeficientError,
    TooLargeError,
    UnknownPresetError,
    ZeroElementError,
)
from .families import (
    CoprimeFamily,
    Explicit,
    FamilySpec,
    Geometric,
    Primes,
    RectEntry,
    RectTemplate,
    Rectangular,
    Static,
    Template,
    format_family,
    odd_primes,
    parse_family,
    preset,
)
from .lattices import Lattice, UnimodularMap, hnf, intersect_all, split_in_sum
from .numtheory import crt_integers, factor, is_prime, primes_up_to, xgcd
from .proximality import (
    ConditionRow,
    ConditionsReport,
    CoprimeList,
    CoprimeSubscheme,
    CoverCheck,
    Covering,
    CoveringReport,
    DPrimeReport,
    Evidence,
    FixedTranslate,
    FixedTranslateReport,
    SearchBudget,
    Verdict,
    check_covering,
    check_coprime_cover_candidate,
    check_fixed_translate,
    conditions_report,
    coprime_index_subset,
    crt_window_certificate,
    decide,
    decide_rectangular,
    extract_coprime_subset,
    fixed_translate_verdict,
    prove_no_zero_window,
)
from .quadratic import ProductIdeal, QuadIdeal, QuadraticRing, crt, crt_product, principal, unit_ideal
from .windows import (
    Box,
    DensityProfile,
    FreeWindow,
    ProfileRow,
    Shape,
    all_zero_windows,
    covered_flags,
    density_profile,
    find_zero_window,
    free_window,
    syndetic_period,
    zero_window_by_crt,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
