"""Exception types shared across the package, and its one integer check.

Every user-facing failure is one of these, so the CLI can map them to
stable exit codes (validation -> 3, numerical -> 4).
"""
from numbers import Integral


class ValidationError(ValueError):
    """Raised when inputs violate a documented precondition."""


class NumericalError(ArithmeticError):
    """Raised when a computation produces non-finite or inconsistent values."""


class FormatError(ValidationError):
    """Malformed container file. ``offset`` is the byte position of the problem."""

    def __init__(self, offset: int, message: str):
        self.offset = offset
        super().__init__("byte %d: %s" % (offset, message))


def require_integer(value, name):
    """value as a Python int; ValidationError unless it is an integer (numpy's included)."""
    if not isinstance(value, Integral):
        raise ValidationError("%s must be an integer, got %r" % (name, value))
    return int(value)


def require_integers(config, *names):
    """Raise ValidationError unless each named field of config is an integer."""
    for name in names:
        require_integer(getattr(config, name), name)
