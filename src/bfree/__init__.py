"""Exact arithmetic for B-free lattice systems.

The package computes free sets for families of finite-index lattices in Z^m
(and ideals in quadratic integer rings), searches and constructs zero
windows, and decides proximality of the associated subshifts where the
family schema admits an exact answer, producing machine-checkable
certificates either way.

Submodules load on first use: ``import bfree`` imports none of them, and a
public name such as ``bfree.decide`` imports its home module (here
``bfree.proximality``) when it is first read (PEP 562).  So the CLI's
``eta`` and ``density`` never load the verdict engine.
"""

import importlib

# submodule -> the public names it defines
_EXPORTS = {
    "errors": (
        "BFreeError BadInputError FactorizationError FamilyParseError InconsistencyError "
        "InvalidCoverError NotAZeroWindowError NotCoprimeError NotEnoughIdealsError "
        "NotPairwiseCoprimeError NotRectangularError RankDeficientError TooLargeError "
        "UnknownPresetError ZeroElementError"
    ),
    "families": (
        "CoprimeFamily Explicit FamilySpec Geometric Primes RectEntry RectTemplate Rectangular "
        "Static Template format_family odd_primes parse_family preset"
    ),
    "lattices": "Lattice UnimodularMap hnf intersect_all split_in_sum",
    "numtheory": "crt_integers factor is_prime primes_up_to xgcd",
    "proximality": (
        "ConditionRow ConditionsReport CoprimeList CoprimeSubscheme CoverCheck Covering "
        "CoveringReport Evidence FixedTranslateReport SearchBudget "
        "Verdict check_covering check_coprime_cover_candidate check_fixed_translate "
        "conditions_report coprime_index_subset crt_window_certificate decide decide_rectangular "
        "prove_no_zero_window"
    ),
    "quadratic": "ProductIdeal QuadIdeal QuadraticRing crt crt_product principal unit_ideal",
    "windows": (
        "Box DensityProfile FreeWindow ProfileRow Shape all_zero_windows covered_flags "
        "density_profile find_zero_window free_window syndetic_period zero_window_by_crt"
    ),
}
# public name -> its submodule; a submodule name maps to itself
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_HOME.update((module, module) for module in _EXPORTS)

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    if home == name:
        return module  # the import bound it on the package as well
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
