"""Exception taxonomy shared across the package.

Callers can rely on three stable categories: bad input (:class:`ValidationError`),
well-formed input with no feasible answer (:class:`InfeasibleError`), and an
iterative solver stopping short of its tolerance (:class:`ConvergenceError`).  The
CLI maps the first two to exit code 1 and the last to exit code 2.
"""

from __future__ import annotations


class IOTError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(IOTError):
    """Malformed or out-of-domain input: bad graph, bad parameter, bad file."""


class InfeasibleError(IOTError):
    """The requested marginals / support admit no transport plan."""


class ConvergenceError(IOTError):
    """An iterative solver stopped short of its tolerance: its iteration budget
    ran out, or floats could not resolve the residual any further.

    Carries the final residual so callers can report how close the run got.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual
