"""Exception types shared across the toolkit.

Library code raises the most specific class that applies instead of a bare
ValueError, so callers can tell bad input from bad data and from divergence.
"""


class ContourselError(Exception):
    """Base class for all toolkit errors."""


class InvalidProblemError(ContourselError):
    """Unsupported (kind, function, dimension) combination."""


class ContractError(ContourselError):
    """An argument violates a documented precondition (shape, range, ...)."""


class DataError(ContourselError):
    """Input data is malformed or non-finite."""


class ParseError(DataError):
    """A CSV/JSON artifact could not be parsed."""


class TrainingError(ContourselError):
    """Training produced a non-finite loss or otherwise diverged."""
