"""Concept and role syntax trees and feature sets.

The language extends a PDL-style description logic with graded truth
constants.  Optional features are toggled by a :class:`FeatureSet`:

* ``I``    inverse roles
* ``O``    nominals
* ``U``    the universal role
* ``Self`` local reflexivity (``exists r . self``)
* ``Qn``   qualified number restrictions with bound n
* ``Nn``   unqualified number restrictions with bound n

The feature set, the syntax nodes, and the result and box-item records of
the other modules share one slotted base, :class:`_Record`: they are
frozen, equal when their class and fields are, hashable unless a field
holds a dict, and safe to share between threads.  Each takes its fields
by position or by keyword, through one ``__init__`` factory; no class is
generated at import.  Each node class is described once, by its row of
:data:`_NODES`, which the printer and :func:`structural_key` both read.
The bisimulation modes and the default concept budget live here too, so
that the command-line parser can be built from this module alone.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple, Union

from .errors import FeatureError, InputError, briefly, json_text, quoted, too_many_digits
from .godel import degree, format_degree

# The two bisimulation modes: graded (fuzzy) and all-or-nothing (crisp).
MODES = ("fuzzy", "crisp")

# Most concepts that enumerating a fragment may build, unless told otherwise.
DEFAULT_BUDGET = 20_000


def check_mode(mode) -> None:
    if mode not in MODES:
        raise InputError(f"mode must be one of {MODES}, got {json_text(mode)}")


# ---------------------------------------------------------------------------
# records: the shared base of feature sets, syntax nodes and results


_set = object.__setattr__


def _listing(names) -> str:
    """Quoted names as Python's own argument errors list them."""
    quoted = [repr(name) for name in names]
    if len(quoted) < 3:
        return " and ".join(quoted)
    return ", ".join(quoted[:-1]) + ", and " + quoted[-1]


def _keyword_initializer(cls, check: Optional[Callable[["_Record"], None]]):
    """The ``__init__`` of every record class, nodes included: it takes
    each field by position or by keyword, falls back on ``_defaults`` for
    the fields left out, and refuses other calls with the message a
    written-out ``__init__`` would give.  Then it runs the class's
    ``check``, if it has one, however the fields were passed."""
    fields, defaults = cls._fields, cls._defaults
    required = [name for name in fields if name not in defaults]
    function = f"{cls.__qualname__}.__init__()"
    takes = f"from {len(required) + 1} to " if defaults else ""
    takes += f"{len(fields) + 1} positional argument" + ("s" if fields else "")

    def bind(args, kwargs) -> List[object]:
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{function} got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{function} got multiple values for argument {name!r}")
            values[name] = value
        if len(args) > len(fields):
            raise TypeError(f"{function} takes {takes} but {len(args) + 1} were given")
        missing = [name for name in required if name not in values]
        if missing:
            s = "s" if len(missing) > 1 else ""
            raise TypeError(f"{function} missing {len(missing)} required positional "
                            f"argument{s}: {_listing(missing)}")
        return [values[name] if name in values else defaults[name] for name in fields]

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(fields):
            args = bind(args, kwargs)
        for name, value in zip(fields, args):
            _set(self, name, value)
        _set(self, "_hash", None)
        if check is not None:
            check(self)
    return __init__


class _Record:
    """The base of feature sets, syntax nodes, and the result and box-item
    records: frozen, with ``__slots__``, equal when class and field values
    are equal, hashed by its field values, and copied and pickled through
    its constructor.

    A record class lists its fields once, as its ``__slots__``; slots named
    with a leading underscore hold caches and are not fields.  Its
    ``__init__``, made by :func:`_keyword_initializer` for every subclass,
    and the methods here read the fields from ``_fields``; ``__init__``
    takes them by position or keyword, and ``_defaults`` maps the fields
    that may be left out to their values.  A class's own
    ``_check``, if any, validates or normalizes each new record.  The hash
    is kept on the record when first asked for; a record with a dict field
    has none.
    """

    __slots__ = ("_hash",)
    _fields: Tuple[str, ...] = ()
    _defaults: Dict[str, object] = {}

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__dict__.get("__slots__", ()) if name[0] != "_")
        cls.__init__ = _keyword_initializer(cls, cls.__dict__.get("_check"))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self is not other:
            for name in self._fields:
                if getattr(self, name) != getattr(other, name):
                    return False
        return True

    def __hash__(self):
        value = self._hash
        if value is None:
            value = hash(tuple([getattr(self, name) for name in self._fields]))
            _set(self, "_hash", value)
        return value

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self._fields])


# ---------------------------------------------------------------------------
# feature sets


_FEATURE_WORDS = {"I": "inverse", "O": "nominals", "U": "universal", "Self": "self_loops"}


class FeatureSet(_Record):
    """Selected optional features; bounds of None mean "every n >= 1"."""

    __slots__ = ("inverse", "nominals", "universal", "self_loops", "q_bounds", "n_bounds")
    _defaults = {"inverse": False, "nominals": False, "universal": False, "self_loops": False,
                 "q_bounds": frozenset(), "n_bounds": frozenset()}

    def _check(self):
        for name in ("q_bounds", "n_bounds"):
            bounds = getattr(self, name)
            if bounds is None:
                continue
            bounds = frozenset(bounds)
            if any(not isinstance(n, int) or n < 1 for n in bounds):
                raise InputError(f"{name} must contain positive integers")
            _set(self, name, bounds)

    @classmethod
    def none(cls) -> "FeatureSet":
        return cls()

    @classmethod
    def permissive(cls) -> "FeatureSet":
        """Everything enabled, number-restriction bounds unrestricted."""
        return cls(True, True, True, True, None, None)

    @classmethod
    @lru_cache(maxsize=256)  # the instances are frozen, so one can be shared
    def parse(cls, text: str) -> "FeatureSet":
        """Parse a comma list such as ``"I,O,U,Self,Q2,N3"``; "" is empty.

        ``Q*`` and ``N*`` enable every bound n, as :meth:`format` writes them.
        """
        kwargs = dict.fromkeys(_FEATURE_WORDS.values(), False)
        bounds = {"Q": set(), "N": set()}
        for raw in text.split(","):
            token = raw.strip()
            if not token:
                continue
            if token in _FEATURE_WORDS:
                kwargs[_FEATURE_WORDS[token]] = True
                continue
            if token in ("Q*", "N*"):
                bounds[token[0]] = None
                continue
            try:
                n = int(token[1:]) if re.fullmatch(r"[QN][0-9]+", token) else 0  # ASCII digits
            except ValueError as exc:
                raise InputError(too_many_digits("feature token", token)) from exc
            if n < 1:
                raise InputError(
                    f"unknown feature token {quoted(token)}; expected I, O, U, Self, "
                    f"Q<n>, N<n>, Q* or N*"
                )
            if bounds[token[0]] is not None:
                bounds[token[0]].add(n)
        return cls(q_bounds=bounds["Q"], n_bounds=bounds["N"], **kwargs)

    def format(self) -> str:
        parts = [word for word, field in _FEATURE_WORDS.items() if getattr(self, field)]
        parts += [f"Q{n}" for n in sorted(self.q_bounds or ())]
        parts += [f"N{n}" for n in sorted(self.n_bounds or ())]
        if self.q_bounds is None:
            parts.append("Q*")
        if self.n_bounds is None:
            parts.append("N*")
        return ",".join(parts)

    def allows_qualified(self, n: int) -> bool:
        return self.q_bounds is None or n in self.q_bounds

    def allows_unqualified(self, n: int) -> bool:
        return self.n_bounds is None or n in self.n_bounds

    def has_qualified(self) -> bool:
        return self.q_bounds is None or bool(self.q_bounds)

    def has_unqualified(self) -> bool:
        return self.n_bounds is None or bool(self.n_bounds)


# ---------------------------------------------------------------------------
# role and concept trees


class _Node(_Record):
    """The base of every role and concept node: a record with no defaults,
    so that each field is given, by position or by keyword.

    ``_children`` names the fields that hold sub-expressions, in field
    order (every field but the label of the class's :data:`_NODES` row).
    The structural key, like the hash, is kept on the node when first asked
    for: the evaluator's memo hashes every subconcept, and the enumerator
    keys every candidate, and candidates share their subtrees.
    """

    __slots__ = ("_key",)
    _children: Tuple[str, ...] = ()


class Role(_Node):
    """Marker base class for role expressions."""

    __slots__ = ()


class Concept(_Node):
    """Marker base class for concept expressions."""

    __slots__ = ()


class RoleName(Role):
    __slots__ = ("name",)


class Inverse(Role):
    __slots__ = ("role",)


class Universal(Role):
    __slots__ = ()


class Compose(Role):
    __slots__ = ("left", "right")


class RoleUnion(Role):
    __slots__ = ("left", "right")


class Star(Role):
    __slots__ = ("role",)


class Test(Role):
    __slots__ = ("concept",)

    __test__ = False  # keep pytest from collecting the PDL test operator


def is_basic_role(role: Role) -> bool:
    """A role name, or the inverse of a role name."""
    return isinstance(role, RoleName) or (
        isinstance(role, Inverse) and isinstance(role.role, RoleName)
    )


class Constant(Concept):
    __slots__ = ("value",)

    def _check(self):
        _set(self, "value", degree(self.value))


class ConceptName(Concept):
    __slots__ = ("name",)


class Nominal(Concept):
    __slots__ = ("individual",)


class Not(Concept):
    """Goedel negation: 1 at degree 0, else 0."""

    __slots__ = ("concept",)


class InvNeg(Concept):
    """Involutive negation: 1 - degree."""

    __slots__ = ("concept",)


class Delta(Concept):
    """Baaz projection; shorthand for Goedel-negated involutive negation."""

    __slots__ = ("concept",)


class And(Concept):
    __slots__ = ("left", "right")


class Or(Concept):
    __slots__ = ("left", "right")


class Implies(Concept):
    __slots__ = ("left", "right")


class Exists(Concept):
    __slots__ = ("role", "filler")


class Forall(Concept):
    __slots__ = ("role", "filler")


class SelfLoop(Concept):
    """``exists r . self`` -- defined for role names only."""

    __slots__ = ("role_name",)


def _check_restriction(node) -> None:
    if not isinstance(node.n, int) or node.n < 1:
        raise InputError(f"number-restriction bound must be a positive integer, got {node.n!r}")
    if not is_basic_role(node.role):
        raise InputError("number restrictions require a basic role (a name or its inverse)")


class AtLeast(Concept):
    __slots__ = ("n", "role", "filler")
    _check = _check_restriction


class Less(Concept):
    __slots__ = ("n", "role", "filler")
    _check = _check_restriction


class AtLeastUnq(Concept):
    __slots__ = ("n", "role")
    _check = _check_restriction


class LessUnq(Concept):
    __slots__ = ("n", "role")
    _check = _check_restriction


Expr = Union[Concept, Role]


def children(expr: Expr) -> Tuple[Expr, ...]:
    """The direct sub-expressions of a node, in field order."""
    if not isinstance(expr, _Node):
        raise InputError(f"not a concept or role: {expr!r}")
    names = expr._children
    return tuple([getattr(expr, name) for name in names]) if names else ()


# ---------------------------------------------------------------------------
# feature well-formedness


def validate(expr: Expr, features: FeatureSet) -> None:
    """Raise :class:`FeatureError` if ``expr`` uses a disabled feature."""
    if isinstance(expr, Inverse) and not features.inverse:
        raise FeatureError(f"inverse roles need feature I: {briefly(to_text(expr))}")
    if isinstance(expr, Universal) and not features.universal:
        raise FeatureError("the universal role needs feature U")
    if isinstance(expr, Nominal) and not features.nominals:
        raise FeatureError(f"nominals need feature O: {briefly(to_text(expr))}")
    if isinstance(expr, SelfLoop) and not features.self_loops:
        raise FeatureError(f"local reflexivity needs feature Self: {briefly(to_text(expr))}")
    if isinstance(expr, (AtLeast, Less)) and not features.allows_qualified(expr.n):
        raise FeatureError(
            f"qualified number restriction needs feature Q{expr.n}: {briefly(to_text(expr))}"
        )
    if isinstance(expr, (AtLeastUnq, LessUnq)) and not features.allows_unqualified(expr.n):
        raise FeatureError(
            f"unqualified number restriction needs feature N{expr.n}: {briefly(to_text(expr))}"
        )
    for child in children(expr):
        validate(child, features)


# ---------------------------------------------------------------------------
# printing and ordering (the printer is the inverse of parsing.parse; see that
# module for the grammar)

# Binding levels, loosest first; text binding looser than its context asks
# for is parenthesized.  Concepts and roles have separate scales.
_C_IMPLIES, _C_OR, _C_AND, _C_PREFIX, _C_ATOM = range(5)
_R_UNION, _R_COMPOSE, _R_POSTFIX, _R_ATOM = range(4)

# Per node class: the leading tag of its structural key; the field whose
# value is the key's label (None for an empty label); the binding level of
# its text; that text, with the label and then each child at a ``%s``; and
# the level each child is printed at, in field order.
_NODES: Dict[type, Tuple[int, Optional[str], int, str, Tuple[int, ...]]] = {
    Constant: (0, "value", _C_ATOM, "%s", ()),
    ConceptName: (1, "name", _C_ATOM, "%s", ()),
    Nominal: (2, "individual", _C_ATOM, "{%s}", ()),
    SelfLoop: (3, "role_name", _C_PREFIX, "exists %s . self", ()),
    Not: (4, None, _C_PREFIX, "not %s", (_C_PREFIX,)),
    InvNeg: (5, None, _C_PREFIX, "inv %s", (_C_PREFIX,)),
    Delta: (6, None, _C_PREFIX, "delta %s", (_C_PREFIX,)),
    And: (7, None, _C_AND, "%s and %s", (_C_AND, _C_AND + 1)),
    Or: (8, None, _C_OR, "%s or %s", (_C_OR, _C_OR + 1)),
    Implies: (9, None, _C_IMPLIES, "%s -> %s", (_C_IMPLIES + 1, _C_IMPLIES)),
    Exists: (10, None, _C_PREFIX, "exists %s . %s", (_R_UNION, _C_PREFIX)),
    Forall: (11, None, _C_PREFIX, "forall %s . %s", (_R_UNION, _C_PREFIX)),
    AtLeast: (12, "n", _C_PREFIX, ">= %s %s . %s", (_R_POSTFIX, _C_PREFIX)),
    Less: (13, "n", _C_PREFIX, "< %s %s . %s", (_R_POSTFIX, _C_PREFIX)),
    AtLeastUnq: (14, "n", _C_PREFIX, ">= %s %s", (_R_POSTFIX,)),
    LessUnq: (15, "n", _C_PREFIX, "< %s %s", (_R_POSTFIX,)),
    RoleName: (20, "name", _R_ATOM, "%s", ()),
    Universal: (21, None, _R_ATOM, "U", ()),
    Inverse: (22, None, _R_POSTFIX, "%s-", (_R_POSTFIX,)),
    Star: (23, None, _R_POSTFIX, "%s*", (_R_POSTFIX,)),
    Compose: (24, None, _R_COMPOSE, "%s ; %s", (_R_COMPOSE, _R_COMPOSE + 1)),
    RoleUnion: (25, None, _R_UNION, "%s | %s", (_R_UNION, _R_UNION + 1)),
    Test: (26, None, _R_ATOM, "%s?", (_C_ATOM,)),
}

# Every field of a node class but its label holds a sub-expression.
for _cls, _row in _NODES.items():
    _cls._children = tuple(name for name in _cls._fields if name != _row[1])

def _text(expr: Expr, level: int) -> str:
    try:
        _tag, label, own, template, levels = _NODES[type(expr)]
    except KeyError:
        raise InputError(f"not a concept or role: {expr!r}") from None
    if label is None:
        parts = []
    else:
        value = getattr(expr, label)
        # degrees print as decimals; their key label stays the fraction
        parts = [format_degree(value) if type(value) is Fraction else value]
    for name, at in zip(expr._children, levels):
        parts.append(_text(getattr(expr, name), at))
    text = template % tuple(parts)
    return f"({text})" if own < level else text


def to_text(expr: Expr) -> str:
    """Render an expression in the concrete grammar; parses back identically."""
    return _text(expr, 0)  # the loosest level on both scales


def structural_key(expr: Expr):
    """A total, deterministic ordering key over syntax trees:
    ``(tag, label, keys of the children)``.

    Computed once per node and kept on it (:class:`_Node`).
    """
    try:
        tag, label, _own, _template, _levels = _NODES[type(expr)]
    except KeyError:
        raise InputError(f"not a concept or role: {expr!r}") from None
    try:
        return expr._key
    except AttributeError:  # not yet asked for
        text = "" if label is None else str(getattr(expr, label))
        key = (tag, text, tuple([structural_key(getattr(expr, name)) for name in expr._children]))
        _set(expr, "_key", key)
        return key
