"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one type.  Sub-hierarchies mirror the layers of the
system: the Monet kernel, the MOA layer, and the TPC-D substrate.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class MonetError(ReproError):
    """Base class for errors raised by the Monet kernel substrate."""


class AtomError(MonetError):
    """An unknown atom type, or a value that does not fit an atom type."""


class HeapError(MonetError):
    """Heap construction or access failure."""


class BATError(MonetError):
    """Malformed BAT, or an operation applied to an incompatible BAT."""


class PropertyError(MonetError):
    """A declared BAT property is inconsistent with the BAT's data."""


class OperatorError(MonetError):
    """A BAT-algebra operator was invoked with invalid operands."""


class MILError(MonetError):
    """A MIL program is malformed or failed to execute."""


class PlanVerificationError(MILError):
    """Static plan verification rejected a MIL program before
    execution: an unbound reference, a use-before-def, an operator
    applied to operands it cannot accept, or a malformed statement.
    The plan is wrong; resubmitting it cannot succeed."""

    def __init__(self, message, findings=None):
        super().__init__(message)
        #: the verifier findings behind the rejection (list of
        #: :class:`repro.analysis.verify.Finding`), when available
        self.findings = list(findings) if findings else []


class PlanBudgetExceededError(PlanVerificationError):
    """The statically derived cardinality/byte bound of a plan exceeds
    the configured admission budget.  The plan is well-formed but too
    expensive for this server; not retryable against the same budget."""


class WorkerCrashedError(MonetError):
    """A dispatcher worker process died while a task was in flight.

    The pool respawns the worker; the task that was lost surfaces with
    this error instead of hanging the caller (a task that never reached
    the worker is retried transparently on the replacement)."""


class CatalogError(MonetError):
    """A named BAT is missing from (or duplicated in) the kernel catalog."""


class CatalogLockTimeout(CatalogError):
    """The shared-catalog advisory lock stayed held past the timeout."""


class StaleCatalogError(CatalogError):
    """The on-disk manifest is older than the generation the caller
    requires (a rolled-back directory, or a reader that raced a save
    which never completed)."""


class CatalogChangedError(CatalogError):
    """The catalog was rewritten to a newer generation than the one the
    caller opened (or pinned); the reader must reopen to proceed."""


class ServerError(ReproError):
    """Base class for errors raised by the concurrent query service."""


class ProtocolError(ServerError):
    """A malformed, oversized, or truncated wire-protocol frame — or a
    shipped payload whose checksum does not verify on the client."""


class FrameTooLargeError(ProtocolError):
    """A peer announced a frame longer than ``MAX_FRAME_BYTES``.  The
    server answers with a typed error frame before hanging up, so the
    client sees this instead of a silent disconnect."""


class ServerOverloadedError(ServerError):
    """Admission control rejected the request: the in-flight limit is
    reached and the bounded wait queue is full (or the queue wait
    exceeded its budget), or the worker pool is respawning after
    repeated crashes.  Back off and retry."""


class QuotaExceededError(ServerOverloadedError):
    """A per-client request quota (token bucket) rejected the request.
    Retryable after backoff, like any overload."""


class ServerDrainingError(ServerError):
    """The server is shutting down gracefully: it stopped accepting
    work and is finishing in-flight requests.  Reconnect elsewhere or
    retry once the restart completes."""


class AuthError(ServerError):
    """The server requires a shared-secret token and the client sent a
    missing or wrong one (or sent requests before authenticating)."""


class QueryTimeoutError(ServerError):
    """A query exceeded its per-query timeout.  The worker executing it
    is killed and respawned, so the slot is reclaimed immediately."""


class ConnectionLostError(ServerError):
    """The client lost its connection mid-request (reset, EOF, or a
    frame torn by the peer).  Idempotent reads may be retried on a
    fresh connection."""


class RetriesExhaustedError(ConnectionLostError):
    """A client retry policy ran out of attempts.  ``__cause__`` holds
    the last underlying error."""

    def __init__(self, message, attempts=None):
        super().__init__(message)
        self.attempts = attempts


class InjectedFaultError(ReproError):
    """A :mod:`repro.faults` plan fired at an injection point.  Only
    ever raised while a fault plan is installed (tests, chaos suite)."""


class MOAError(ReproError):
    """Base class for errors raised by the MOA layer."""


class TypeSystemError(MOAError):
    """Invalid MOA type construction."""


class SchemaError(MOAError):
    """Invalid class definition or schema composition."""


class ParseError(MOAError):
    """Syntax error in a textual MOA query."""

    def __init__(self, message, position=None, text=None):
        self.position = position
        self.text = text
        if position is not None and text is not None:
            line = text.count("\n", 0, position) + 1
            col = position - (text.rfind("\n", 0, position) + 1) + 1
            message = "%s (line %d, column %d)" % (message, line, col)
        super().__init__(message)


class TypeCheckError(MOAError):
    """A MOA expression is ill-typed with respect to the schema."""


class RewriteError(MOAError):
    """The MOA->MIL rewriter met a construct it cannot translate."""


class EvaluationError(MOAError):
    """The reference evaluator met an invalid runtime value."""


class MappingError(MOAError):
    """Logical data does not match the schema during flattening."""


class SqlError(ReproError):
    """Base class for errors raised by the SQL front-end."""


class SqlParseError(SqlError):
    """Syntax error in a SQL query text.  Carries the character
    position of the offending token, rendered as line/column, exactly
    like the MOA :class:`ParseError`."""

    def __init__(self, message, position=None, text=None):
        self.position = position
        self.text = text
        if position is not None and text is not None:
            line = text.count("\n", 0, position) + 1
            col = position - (text.rfind("\n", 0, position) + 1) + 1
            message = "%s (line %d, column %d)" % (message, line, col)
        super().__init__(message)


class SqlUnsupportedError(SqlError):
    """The SQL parsed, but lies outside the supported subset (window
    functions, outer joins, NULL semantics, ...) or does not bind
    against the TPC-D catalog (unknown table/column, ambiguous name,
    correlation shape the lowering cannot decorrelate).  Resubmitting
    the identical text cannot succeed."""


class TPCDError(ReproError):
    """Base class for errors in the TPC-D substrate."""


class DBGenError(TPCDError):
    """Invalid data-generation parameters."""


class CostModelError(ReproError):
    """Invalid parameters for the analytic IO cost model."""


# ----------------------------------------------------------------------
# retryability classification
# ----------------------------------------------------------------------
#: Whether a request that failed with each error class may be safely
#: retried (all requests are idempotent reads, so "retryable" means
#: "a resend has a chance of succeeding", not "a resend is safe").
#: Every class defined in this module must appear here — the analysis
#: selfcheck (`python -m repro.analysis --selfcheck`) enforces the
#: invariant, so adding an error class without classifying it fails CI.
RETRYABLE = {
    # transient transport / capacity conditions: back off and resend
    "ConnectionLostError": True,
    "ServerOverloadedError": True,
    "QuotaExceededError": True,
    "WorkerCrashedError": True,
    # terminal for this request (or this server): a resend of the
    # identical request cannot do better
    "ReproError": False,
    "MonetError": False,
    "AtomError": False,
    "HeapError": False,
    "BATError": False,
    "PropertyError": False,
    "OperatorError": False,
    "MILError": False,
    "PlanVerificationError": False,
    "PlanBudgetExceededError": False,
    "CatalogError": False,
    "CatalogLockTimeout": True,     # the writer's lock will be released
    "StaleCatalogError": True,      # a completed save makes it current
    "CatalogChangedError": True,    # reopen at the new generation
    "ServerError": False,
    "ProtocolError": False,
    "FrameTooLargeError": False,
    "ServerDrainingError": False,   # per policy: find another server
    "AuthError": False,
    "QueryTimeoutError": False,     # the budget is the caller's
    "RetriesExhaustedError": False,  # the retry budget is already spent
    "InjectedFaultError": False,
    "MOAError": False,
    "TypeSystemError": False,
    "SchemaError": False,
    "ParseError": False,
    "TypeCheckError": False,
    "RewriteError": False,
    "EvaluationError": False,
    "MappingError": False,
    "SqlError": False,
    "SqlParseError": False,
    "SqlUnsupportedError": False,
    "TPCDError": False,
    "DBGenError": False,
    "CostModelError": False,
}


def is_retryable(error):
    """Retryability of an exception class or instance.

    Walks the MRO to the nearest classified ancestor, so subclasses
    defined elsewhere inherit their parent's classification; anything
    outside the :class:`ReproError` hierarchy is not retryable."""
    cls = error if isinstance(error, type) else type(error)
    for ancestor in cls.__mro__:
        if ancestor.__name__ in RETRYABLE:
            return RETRYABLE[ancestor.__name__]
    return False
