"""Exception types of the package, the one limit check, and the parsers' int reader."""


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


def check_limit(subject: str, n: int, limit: int, env: str | None = None) -> None:
    """Refuse n > limit, before any work: the only place a LimitExceeded is
    built.  env names the variable that overrides the limit, if one does."""
    if n > limit:
        override = "" if env is None else f" (set {env} to override)"
        raise LimitExceeded(f"{subject} n={n} exceeds the limit n <= {limit}{override}")


def read_int(digits: str, what: str, position: int | None = None) -> int:
    """int(digits), or a ParseError if digits is longer than int() takes
    (sys.get_int_max_str_digits())."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(
            f"{what} of {len(digits)} digits is too long to read", position
        ) from None
