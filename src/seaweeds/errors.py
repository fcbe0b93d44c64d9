"""Exception types of the package, the one limit check, the parsers' int
reader, and Frozen, the base of the package's value classes.

Every module that defines a value class already imports this one, and it
imports only operator: building the classes generates and compiles no
code, and a request imports neither inspect nor what inspect imports.
"""

from operator import attrgetter


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


class Frozen:
    """A frozen value class: a subclass lists its fields in __slots__, then
    any derived attributes, named with a leading underscore, which stay out
    of eq, hash, repr and pickling.  Its own __init__ sets each slot with
    object.__setattr__ and then validates.

    Instances are equal within the exact class when their fields are, hash
    their fields, repr as Name(field=value, ...), refuse assignment and
    deletion, and pickle and copy by calling the class on their fields.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(f for f in cls.__slots__ if not f.startswith("_"))
        cls._values = attrgetter(*cls._fields)  # of one field: its value

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)
