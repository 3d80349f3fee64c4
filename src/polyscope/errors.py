"""Exception types shared across the package.

Each class maps onto one of the process exit codes used by the command line
front-end: input/usage problems, insufficient data, and numerical failures.
"""


class PolyscopeError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(PolyscopeError):
    """A parameter or configuration value violates its contract."""


class InputFormatError(PolyscopeError):
    """An input file could not be parsed; message names line/column."""


class InsufficientDataError(PolyscopeError):
    """Not enough samples for the requested estimation."""


class InvalidSpectrumError(PolyscopeError):
    """A spectrum fails a structural requirement (realness, positivity, evenness)."""


class IllConditionedSpectrumError(PolyscopeError):
    """An input spectral matrix is singular beyond the floor; names the frequency."""


class DegenerateSeriesError(PolyscopeError):
    """A series has zero variance where a correlation is required."""


class CombinatorialLimitError(PolyscopeError):
    """An exhaustive search would exceed the configured enumeration budget."""
