"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one base class.  Subsystems define narrower classes here
(rather than locally) to avoid circular imports between substrates.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class XmlSyntaxError(ReproError):
    """Raised by the XML tokenizer/parser on malformed input.

    Carries the (1-based) ``line`` and ``column`` of the offending input
    when known.
    """

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None) -> None:
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class DtdSyntaxError(ReproError):
    """Raised when a DTD declaration cannot be parsed."""


class SchemaError(ReproError):
    """Raised on inconsistent schema trees (unknown elements, duplicates)."""


class FragmentationError(ReproError):
    """Raised when a fragmentation violates Definition 3.4 (validity)."""


class MappingError(ReproError):
    """Raised when no mapping exists between two fragmentations."""


class ProgramError(ReproError):
    """Raised on malformed data-transfer programs (cycles, dangling writes)."""


class PlacementError(ReproError):
    """Raised when an operator placement violates one-way shipping rules."""


class OperationError(ReproError):
    """Raised when a primitive operation is applied to incompatible inputs."""


class RelationalError(ReproError):
    """Base class for relational-engine errors."""


class TableError(RelationalError):
    """Raised on schema violations (unknown table/column, arity mismatch)."""


class DirectoryError(ReproError):
    """Raised by the LDAP-like directory store (bad DN, unknown class)."""


class WsdlError(ReproError):
    """Raised when a WSDL document (or fragmentation extension) is invalid."""


class TransportError(ReproError):
    """Raised by the simulated network transport (closed channel, overflow)."""


class MessageDropped(TransportError):
    """Raised when a message is lost in flight (fault injection)."""


class MessageCorrupted(TransportError):
    """Raised when a received message fails its integrity check."""


class RetryExhausted(TransportError):
    """Raised when a retry policy gives up on a message.

    Carries the total ``attempts`` made and the ``last_cause`` — the
    final transport failure that exhausted the budget.
    """

    def __init__(self, message: str, attempts: int,
                 last_cause: BaseException | None = None) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.last_cause = last_cause


class SoapFault(ReproError):
    """Raised when a SOAP envelope is malformed or carries a fault."""


class EndpointError(ReproError):
    """Raised when a system endpoint cannot execute an assigned operation."""


class NegotiationError(ReproError):
    """Raised by the discovery agency when negotiation cannot proceed."""


class BrokerError(ReproError):
    """Raised by the exchange broker on misuse (closed broker, unknown
    endpoints, invalid session requests)."""


class BrokerSaturatedError(BrokerError):
    """Raised by the broker's admission control when a session is
    submitted beyond the pending budget (and the caller chose not to
    wait for capacity)."""
