"""Exception types shared across the package, and the checks that raise them."""

import numbers


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class DegenerateInputError(ValueError):
    """Input is structurally empty (e.g. every row masked out)."""


class NumericalError(ArithmeticError):
    """A computation produced or received non-finite values."""


class DataFormatError(ValueError):
    """A data file violates its documented format."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(ValueError):
    """Semantically invalid input (out-of-range label, empty label set, ...)."""


class CheckpointError(ValueError):
    """Checkpoint file is unreadable or incompatible with the run config."""


def check_int(name: str, value, low: int, high: float = float("inf")) -> int:
    """`value` as a plain int; ValidationError unless an integer, not a bool, in [low, high)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not low <= value < high:
        raise ValidationError(f"{name} must be an integer in [{low}, {high}), got {value!r}")
    return int(value)


def check_labels(name: str, labels, k: int):
    """`labels`, once each passed `check_int(name, label, 0, k)`; plain in-range ints skip it."""
    for label in labels:
        if type(label) is not int or not 0 <= label < k:
            check_int(name, label, 0, k)
    return labels


def check_positive(name: str, value) -> float:
    """`value` as a plain float; ValidationError unless a finite real number > 0, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < float("inf"):
        raise ValidationError(f"{name} must be a finite number > 0, got {value!r}")
    return float(value)
