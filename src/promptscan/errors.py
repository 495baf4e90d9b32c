"""Exception taxonomy shared across the library."""


class DimensionError(ValueError):
    """Operands have incompatible shapes; message names both."""


class ContractError(ValueError):
    """A documented precondition was violated by the caller."""


class ConfigError(ValueError):
    """A configuration value is missing, malformed, or out of range."""


class ParseError(ValueError):
    """A file could not be parsed; message carries a line or byte position."""


class NumericalConsistencyError(ArithmeticError):
    """A numerical self-check failed (e.g. scan states overflowed from finite operands)."""


class TrainingAborted(RuntimeError):
    """Training stopped on a non-finite loss or gradient."""
