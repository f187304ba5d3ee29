"""Exception types shared across the package.

Two failure families matter to callers: input that cannot be parsed at
all, and well-formed input that violates a documented precondition
(insufficient truncation depth, component out of range, and so on).
The CLI maps them to distinct exit codes.  strict_int reads the
integer fields of input files, which JSON may give as bools or floats.
Messages quote offending input through shown(), so one oversized field
or token cannot make an error line as long as the input.
"""

# Most characters of an offending value's repr that a message quotes.
SHOWN_CHARS = 40


class ParseError(ValueError):
    """Raised when a word, bracket, braid or file cannot be parsed."""


class PreconditionError(ValueError):
    """Raised when an operation's documented precondition is violated."""


def shown(value, is_repr: bool = False) -> str:
    """repr(value), or value if is_repr, cut after SHOWN_CHARS characters."""
    text = value if is_repr else repr(value)
    if len(text) <= SHOWN_CHARS:
        return text
    return f"{text[:SHOWN_CHARS]}... ({len(text)} characters)"


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
    raise ParseError(f"{what} is not an integer: {shown(value)}")
