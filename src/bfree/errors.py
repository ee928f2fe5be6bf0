"""Exception types shared across the package."""

from functools import partial


class BFreeError(Exception):
    """Base class for all package-specific errors."""


class RankDeficientError(BFreeError, ValueError):
    """Generators span a subgroup of infinite index (rank below the ambient dimension)."""


class TooLargeError(BFreeError, ValueError):
    """An enumeration or window exceeds the configured size limit.

    Besides its text it carries the breach as data: ``check`` names the
    check that refused, ``limit_name`` the limit (the parameter or constant
    that sets it), ``limit`` its value and ``count`` the size that was
    needed or reached."""

    def __init__(self, message: str, *, check: str, limit_name: str, limit: int, count: int):
        super().__init__(message)
        self.check = check
        self.limit_name = limit_name
        self.limit = limit
        self.count = count

    def __reduce__(self):
        # pickle (as multiprocessing does) passes only args to the class
        return partial(type(self), **vars(self)), self.args


class ZeroElementError(BFreeError, ValueError):
    """A nonzero ring element was required."""


class NotCoprimeError(BFreeError, ValueError):
    """Ideals or lattices were required to be coprime but are not, or a
    congruence system modulo them has no solution."""


class NotPairwiseCoprimeError(NotCoprimeError):
    """An input list failed the pairwise-coprimality precondition."""


class NotEnoughIdealsError(BFreeError, ValueError):
    """Fewer ideals than pattern cells were supplied."""


class NotAZeroWindowError(BFreeError, ValueError):
    """The translate does not place the whole pattern inside the covered set."""


class UnknownPresetError(BFreeError, ValueError):
    """No preset family with the requested name."""


class NotRectangularError(BFreeError, ValueError):
    """The operation requires rectangular (diagonal) family entries."""


class InvalidCoverError(BFreeError, ValueError):
    """Cover list rejected: covers must be proper and must not exhaust the whole group."""


class InconsistencyError(BFreeError, RuntimeError):
    """Exact condition values contradict a proved equivalence; indicates a bug."""


class FactorizationError(BFreeError, RuntimeError):
    """Exact factorization gave up on a value too large to handle honestly."""


class BadInputError(BFreeError, ValueError):
    """A command-line argument or setting is malformed or does not fit the family."""


class FamilyParseError(BFreeError, ValueError):
    """A family description file could not be parsed."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no

    def __reduce__(self):
        # pickle passes only args to the class, and args hold the whole text
        return type(self), (self.line_no, self.args[0].partition(": ")[2])
