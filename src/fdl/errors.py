"""Exception hierarchy shared by all fdl modules."""

import json


def json_text(value) -> str:
    """``value`` as a JSON document spells it, for error messages; a value
    that JSON cannot spell is written as its string."""
    return json.dumps(value, default=str)


def too_many_digits(what: str, text: str) -> str:
    """The message for a numeral with more digits than Python converts
    (``sys.get_int_max_str_digits()``): it names the numeral by its first
    characters and its length, not by all of them."""
    return f"{what} {text[:12]}... of {len(text)} characters has too many digits"


def quoted(text: str) -> str:
    """``text`` quoted for an error message, or, past 40 characters, named
    by its first characters and its length, as :func:`too_many_digits`
    names a numeral."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:12]!r}... of {len(text)} characters"


class FdlError(Exception):
    """Base class for every error raised by this package."""


class InputError(FdlError):
    """A document, degree, flag, or argument is malformed or out of range."""


class ParseError(InputError):
    """Syntax error in concept/role text; carries the offending position."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class FeatureError(InputError):
    """A construct is used that the active feature set does not allow."""


class ModelError(InputError):
    """An interpretation document or model-level precondition is violated."""


class BudgetError(FdlError):
    """A combinatorial operation exceeded its configured budget."""
