"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI: InputError -> 2, NumericalError -> 3;
exit 1 comes from a failed verdict, never from an exception.
"""


class MixedMilnorError(Exception):
    """Base class for all package errors."""


class InputError(MixedMilnorError):
    """Malformed or out-of-contract input (bad dimensions, bad spec, ...)."""


class PreconditionError(InputError):
    """A documented operation precondition was violated."""


class NumericalError(MixedMilnorError):
    """Internal numerical failure (no convergence, singular system, ...)."""
