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


def briefly(text: str) -> str:
    """``text`` as it is for an error message, or, past 40 characters,
    named by its first characters and its length, as
    :func:`too_many_digits` names a numeral."""
    if len(text) <= 40:
        return text
    return f"{text[:12]!r}... of {len(text)} characters"


def quoted(value) -> str:
    """``value`` as ``repr`` spells it for an error message, or, a text
    past 40 characters, named as :func:`briefly` names it."""
    return briefly(value) if isinstance(value, str) and len(value) > 40 else repr(value)


def listed(names) -> str:
    """The sorted ``names`` as the ``repr`` of their list spells them, each
    name past 40 characters named as :func:`briefly` names it."""
    return "[" + ", ".join(map(quoted, sorted(names))) + "]"


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
