"""Exception types shared across the package."""


class ParseError(ValueError):
    """Malformed text for a composition, seaweed type, signature, or polynomial.

    Carries the bare ``message`` and ``position`` (0-based offset into the
    input) when known; str() appends the position to the message.
    """

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message if position is None
                         else f"{message} (at position {position})")
        self.message = message
        self.position = position


class LimitExceeded(RuntimeError):
    """An enumeration was refused because it would exceed the configured bound."""


class UsageError(ValueError):
    """A command-line argument or environment setting the program cannot use."""
