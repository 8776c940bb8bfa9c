"""Exception hierarchy shared across the package.

Every error carries a stable machine-readable ``code`` so CLI output and wire
messages can name failures without parsing prose.
"""

from __future__ import annotations


class ToolgridError(Exception):
    """Base class; ``code`` is a stable identifier like ``TYPE_MISMATCH``."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


class WorkflowParseError(ToolgridError):
    """Raised by the workflow file parser. Carries location when known."""

    def __init__(self, code: str, message: str, line: int | None = None,
                 column: int | None = None, location: str | None = None):
        super().__init__(code, message)
        self.line = line
        self.column = column
        self.location = location


class PlacementError(ToolgridError):
    """An instance pinned to a node that does not offer its component."""


class DescriptorError(ToolgridError):
    """Tool descriptor parse/validation failure."""


class ComponentConfigError(ToolgridError):
    """Invalid standard-component configuration for an instance."""


class ToolExecutionError(ToolgridError):
    """A tool execution failed (spawn, non-zero exit, or bad outputs).

    ``stage`` is pre/main/post for TOOL_FAILED. ``report`` is the
    ``tools.FiringResult`` of what ran, with its exit status, logs and stamps
    and no emissions, or None for a failure that reports no run (inputs that
    do not fit, a placeholder with no value).
    """

    def __init__(self, code: str, message: str, stage: str | None = None,
                 report=None):
        super().__init__(code, message)
        self.stage = stage
        self.report = report


class DataError(ToolgridError):
    """Blob store / run record errors (NOT_FOUND, DUPLICATE_KEY, ...)."""


class EngineError(ToolgridError):
    """Workflow controller errors (UNKNOWN_INSTANCE, ALREADY_TERMINAL, ...)."""


class FrameError(ToolgridError):
    """Wire codec errors. ``frame_type`` is set when a type byte was read."""

    def __init__(self, code: str, message: str, frame_type: int | None = None):
        super().__init__(code, message)
        self.frame_type = frame_type


class CryptoError(ToolgridError):
    """Group-key material and AEAD errors."""


class NetworkError(ToolgridError):
    """Peer/relay session errors (AUTH_FAILED, TRANSPORT, ...)."""


class ConfigError(ToolgridError):
    """Node configuration errors; ``key`` names the offending entry."""

    def __init__(self, code: str, message: str, key: str | None = None):
        super().__init__(code, message)
        self.key = key
