"""Exception types shared across the package."""


class HomeguardError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(HomeguardError):
    """A log file row could not be parsed."""

    def __init__(self, message: str, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SchemaError(HomeguardError):
    """A record refers to a device/action pair outside the registered vocabulary,
    or a vocabulary file or section is malformed."""


class ValidationError(HomeguardError):
    """A value violates its declared constraints."""

    def __init__(self, message: str, field: str | None = None) -> None:
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)
        self.field = field


class InitializationError(HomeguardError):
    """Timeslot construction could not establish an initial sensor frame."""


class VocabularyError(HomeguardError):
    """An operation was observed that the model has no entry for."""


class ModelError(HomeguardError):
    """Model fitting was attempted on unusable training data."""


class UsageError(HomeguardError):
    """An operation was invoked outside its contract."""
