"""Exception hierarchy shared across the package.

The CLI exits 1 on any of these (it catches ``VqsctError``) and 2 on
I/O problems.
"""


class VqsctError(Exception):
    """Base class for all package errors."""


class ShapeError(VqsctError, ValueError):
    """Operand shapes are inconsistent with each other or with an operation."""


class DomainError(VqsctError, ValueError):
    """A value is outside an operation's admissible domain."""


class FormatError(VqsctError, ValueError):
    """A serialized artifact (volume, checkpoint, report) is malformed."""


class TrainingError(VqsctError, RuntimeError):
    """Training cannot continue (non-finite gradients or loss)."""


class UsageError(VqsctError, ValueError):
    """Bad command-line arguments or run configuration."""
