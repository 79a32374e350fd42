"""Exact degrees: reading and writing them, and the Goedel equivalence.

Degrees are ``fractions.Fraction`` values in [0, 1].  Binary floats are
rejected everywhere: the involutive negation ``1 - p`` and the strict
comparisons inside the Goedel operators make rounding error semantically
visible, so all arithmetic stays exact.  The evaluator grades concepts on
integers over a common denominator (:mod:`fdl.interp`).

Every function here is pure and safe for concurrent use.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction

from .errors import InputError, json_text, quoted, too_many_digits

ZERO = Fraction(0)
ONE = Fraction(1)


# The text of a degree, in ASCII digits: an integer, a decimal or a ratio.
# Model degrees and concept constants (fdl.parsing) share it.
DEGREE_TEXT = r"[0-9]+\.[0-9]+|[0-9]+/[0-9]+|[0-9]+"
_DEGREE_RE = re.compile(DEGREE_TEXT)

# Most distinct degree texts that parse_degree remembers.  Models repeat a
# few texts, so each is parsed once per process.
_PARSE_CACHE_SIZE = 4096


def degree(value) -> Fraction:
    """Coerce ``value`` to an exact degree in [0, 1].

    Accepts Fraction, int, or a string like ``"0.9"`` or ``"3/4"``.  A
    Fraction comes back as itself, not a copy, so models built from one
    another share degree objects and the tables keyed by ``id`` stay small.
    Floats are refused: ``0.9`` the float is not 9/10.  Only strings reach
    the cache of :func:`parse_degree`: ``True == 1 == 1.0`` share a hash,
    and every bool and float must still be refused.  A value that is no
    degree is named as a JSON document spells it (``true``, not ``True``).
    """
    if isinstance(value, str):
        return parse_degree(value)
    if isinstance(value, float):
        raise InputError(
            f"refusing float degree {value!r}: pass a string such as "
            f"'{value}' or a Fraction for exact arithmetic"
        )
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise InputError(f"not a degree: {json_text(value)}")
    # the denominator is positive, so the range shows on the two integers
    if not 0 <= value.numerator <= value.denominator:
        raise InputError(f"degree {format_degree(value)} outside [0, 1]")
    return value if isinstance(value, Fraction) else Fraction(value)


@functools.lru_cache(maxsize=_PARSE_CACHE_SIZE)
def parse_degree(text: str) -> Fraction:
    """Parse ``"0.25"`` / ``"1/4"`` / ``"1"`` into a reduced Fraction in [0, 1];
    every zero text gives ``ZERO`` itself, so a reader can drop zeros by
    identity."""
    stripped = text.strip()
    if not _DEGREE_RE.fullmatch(stripped):
        raise InputError(f"malformed degree {quoted(text)}")
    try:
        result = Fraction(stripped)
    except ZeroDivisionError as exc:
        raise InputError(f"malformed degree {quoted(text)}") from exc
    except ValueError as exc:
        raise InputError(too_many_digits("degree", stripped)) from exc
    if not ZERO <= result <= ONE:
        raise InputError(f"degree {quoted(text)} outside [0, 1]")
    return result or ZERO


class DegreeTexts(dict):
    """One document's degree texts, each read once by :func:`parse_degree`
    to one object.  Look up strings only: ``True == 1 == 1.0`` share a
    hash, and a bool or float must still be refused by :func:`degree`."""

    def __missing__(self, text: str) -> Fraction:
        value = self[text] = parse_degree(text)
        return value


def format_degree(value: Fraction) -> str:
    """Render a degree exactly: shortest decimal if terminating, else num/den."""
    if value.denominator == 1:
        return str(value.numerator)
    den, twos, fives = value.denominator, 0, 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{value.numerator}/{value.denominator}"
    # Scale to the exact decimal expansion.
    digits = max(twos, fives)
    scaled = value.numerator * 10**digits // value.denominator
    text = str(scaled).rjust(digits + 1, "0")
    return f"{text[:-digits]}.{text[-digits:]}"


def godel_iff(p: Fraction, q: Fraction) -> Fraction:
    """min of the two residua: 1 when p == q, else min(p, q)."""
    if p == q:
        return ONE
    return p if p < q else q
