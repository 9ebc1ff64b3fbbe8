"""Exception types shared across the package.

The CLI maps these onto its exit codes (parameter error -> 2,
capability error -> 3, solver error -> 3).
"""


class ParameterError(ValueError):
    """A caller-supplied argument violates an operation's precondition."""

    exit_code = 2


class CapabilityError(RuntimeError):
    """The requested operation is not supported for this input class."""

    exit_code = 3


class SolverError(RuntimeError):
    """An internal solver failed or broke a guarantee it checks; carries
    diagnostic detail."""

    exit_code = 3
