"""Exception hierarchy for the SIMBA benchmark reproduction.

Every subsystem raises a subclass of :class:`SimbaError` so that callers can
catch benchmark-specific failures without swallowing programming errors.
"""

from __future__ import annotations


class SimbaError(Exception):
    """Base class for all errors raised by this package."""


class SqlError(SimbaError):
    """Base class for SQL-layer errors."""


class LexError(SqlError):
    """Raised when the SQL lexer encounters an invalid character sequence.

    Attributes
    ----------
    position:
        Zero-based character offset in the input where the error occurred.
    """

    def __init__(self, message: str, position: int | None = None) -> None:
        super().__init__(message)
        self.position = position


class ParseError(SqlError):
    """Raised when the SQL parser cannot build an AST from a token stream."""

    def __init__(self, message: str, position: int | None = None) -> None:
        super().__init__(message)
        self.position = position


class SchemaError(SimbaError):
    """Raised for invalid schema definitions or unknown columns/tables."""


class ExecutionError(SimbaError):
    """Raised when a query cannot be executed by an engine."""


class TypeMismatchError(ExecutionError):
    """Raised when an expression is applied to values of the wrong type."""


class SpecificationError(SimbaError):
    """Raised for invalid dashboard specifications."""


class InteractionError(SimbaError):
    """Raised when an interaction cannot be applied to a dashboard state."""


class GoalError(SimbaError):
    """Raised for malformed goal algebra expressions or goal sets."""


class SimulationError(SimbaError):
    """Raised when a simulation cannot make progress."""


class ConfigError(SimbaError):
    """Raised for invalid benchmark harness configurations."""


class ServingError(SimbaError):
    """Base class for serving-tier errors (:mod:`repro.serving`)."""


class UnknownSessionError(ServingError):
    """Raised when a request names a session that does not exist.

    Covers both never-created ids and sessions the TTL sweep already
    expired — the serving protocol treats them identically (HTTP 404),
    so clients re-create rather than distinguishing the two.
    """


class AdmissionError(ServingError):
    """Raised when admission control rejects a request (backpressure).

    ``retry_after`` is the server's load-shedding hint in seconds; the
    HTTP layer maps it onto a 429 response's ``Retry-After`` header.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after
