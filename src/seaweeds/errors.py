"""Exception types shared across the package."""


class ParseError(ValueError):
    """Malformed text for a composition, seaweed type, signature, or polynomial.

    Carries ``position`` (0-based offset into the input) when known.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class LimitExceeded(RuntimeError):
    """An enumeration was refused because it would exceed the configured bound."""


class UsageError(ValueError):
    """A command-line argument or environment setting the program cannot use."""
