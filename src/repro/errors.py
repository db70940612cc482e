"""Exception hierarchy for the CQMS reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without also swallowing programming errors
such as ``TypeError`` raised by misuse of the Python API itself.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SQLError(ReproError):
    """Base class for errors in the SQL substrate (tokenizing / parsing)."""


class TokenizeError(SQLError):
    """Raised when the SQL tokenizer encounters an invalid character sequence.

    Attributes
    ----------
    position:
        Character offset in the input string where tokenization failed.
    """

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class ParseError(SQLError):
    """Raised when the SQL parser cannot build an AST from a token stream.

    Attributes
    ----------
    token:
        The offending token (if known), useful for error reporting in the
        assisted-interaction client.
    """

    def __init__(self, message: str, token: object | None = None):
        super().__init__(message)
        self.token = token


class StorageError(ReproError):
    """Base class for errors raised by the relational storage engine."""


class CatalogError(StorageError):
    """Raised for catalog problems: unknown/duplicate tables or columns."""


class SchemaError(StorageError):
    """Raised when a row or value does not conform to a table schema."""


class ExecutionError(StorageError):
    """Raised when query execution fails (e.g. ambiguous column, bad types)."""


class IntegrityError(StorageError):
    """Raised when a uniqueness or not-null constraint is violated."""


class QueryTimeoutError(ExecutionError):
    """Raised when a statement exceeds its admission-control time budget.

    The executor checks the budget cooperatively at batch boundaries, so a
    cancelled statement never leaves a half-applied mutation behind: DML
    target scans are materialized (and therefore cancelled) before the
    first write.
    """


class DurabilityError(StorageError):
    """Raised by the durability subsystem: WAL misuse, lock conflicts on a
    ``data_dir``, operations on a closed database, or unrecoverable
    snapshot/log corruption found during crash recovery."""


class CQMSError(ReproError):
    """Base class for errors raised by the CQMS engine itself."""


class AccessControlError(CQMSError):
    """Raised when a principal attempts an operation it is not allowed."""


class MetaQueryError(CQMSError):
    """Raised when a meta-query is malformed or cannot be executed."""


class RateLimitedError(CQMSError):
    """Raised when admission control rejects a statement before execution.

    A typed, pre-execution rejection: nothing was parsed, executed, or
    logged, so the client can back off and resubmit unchanged.
    """


class WorkloadError(ReproError):
    """Raised when a workload generator is configured inconsistently."""
