"""Exception types shared across the package.

Two failure families matter to callers: input that cannot be parsed at
all, and well-formed input that violates a documented precondition
(insufficient truncation depth, component out of range, and so on).
The CLI maps them to distinct exit codes.  strict_int reads the
integer fields of input files, which JSON may give as bools or floats.
"""


class ParseError(ValueError):
    """Raised when a word, bracket, braid or file cannot be parsed."""


class PreconditionError(ValueError):
    """Raised when an operation's documented precondition is violated."""


def strict_int(value, what: str) -> int:
    """``value`` as an int, or a ParseError naming ``what``.

    int() would truncate 1.5, read true as 1 and overflow on 1e400
    (inf), so only integral finite numbers and integer strings pass.
    """
    if not isinstance(value, bool) and not (
        isinstance(value, float) and not value.is_integer()
    ):
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise ParseError(f"{what} is not an integer: {value!r}")
