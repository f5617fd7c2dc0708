"""Exception types shared across the package."""


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
