"""Concept and role syntax trees, feature sets, and the sublanguage names.

The language extends a PDL-style description logic with graded truth
constants.  Optional features are toggled by a :class:`FeatureSet`:

* ``I``    inverse roles
* ``O``    nominals
* ``U``    the universal role
* ``Self`` local reflexivity (``exists r . self``)
* ``Qn``   qualified number restrictions with bound n
* ``Nn``   unqualified number restrictions with bound n

All nodes are frozen dataclasses: structural equality, hashable, safe to
share between threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields, replace
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, FrozenSet, Optional, Tuple, Union

from .errors import FeatureError, InputError
from .godel import degree, format_degree

# ---------------------------------------------------------------------------
# feature sets


_FEATURE_WORDS = {"I": "inverse", "O": "nominals", "U": "universal", "Self": "self_loops"}


@dataclass(frozen=True)
class FeatureSet:
    """Selected optional features; bounds of None mean "every n >= 1"."""

    inverse: bool = False
    nominals: bool = False
    universal: bool = False
    self_loops: bool = False
    q_bounds: Optional[FrozenSet[int]] = frozenset()
    n_bounds: Optional[FrozenSet[int]] = frozenset()

    def __post_init__(self):
        for name in ("q_bounds", "n_bounds"):
            bounds = getattr(self, name)
            if bounds is None:
                continue
            bounds = frozenset(bounds)
            if any(not isinstance(n, int) or n < 1 for n in bounds):
                raise InputError(f"{name} must contain positive integers")
            object.__setattr__(self, name, bounds)

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
            elif token in ("Q*", "N*"):
                bounds[token[0]] = None
            elif re.fullmatch(r"[QN][0-9]+", token) and int(token[1:]) >= 1:  # ASCII digits
                if bounds[token[0]] is not None:
                    bounds[token[0]].add(int(token[1:]))
            else:
                raise InputError(
                    f"unknown feature token {token!r}; expected I, O, U, Self, "
                    f"Q<n>, N<n>, Q* or N*"
                )
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


class Role:
    """Marker base class for role expressions."""

    __slots__ = ()


class Concept:
    """Marker base class for concept expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class RoleName(Role):
    name: str


@dataclass(frozen=True)
class Inverse(Role):
    role: Role


@dataclass(frozen=True)
class Universal(Role):
    pass


@dataclass(frozen=True)
class Compose(Role):
    left: Role
    right: Role


@dataclass(frozen=True)
class RoleUnion(Role):
    left: Role
    right: Role


@dataclass(frozen=True)
class Star(Role):
    role: Role


@dataclass(frozen=True)
class Test(Role):
    concept: Concept

    __test__ = False  # keep pytest from collecting the PDL test operator


def is_basic_role(role: Role) -> bool:
    """A role name, or the inverse of a role name."""
    return isinstance(role, RoleName) or (
        isinstance(role, Inverse) and isinstance(role.role, RoleName)
    )


@dataclass(frozen=True)
class Constant(Concept):
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", degree(self.value))



@dataclass(frozen=True)
class ConceptName(Concept):
    name: str


@dataclass(frozen=True)
class Nominal(Concept):
    individual: str


@dataclass(frozen=True)
class Not(Concept):
    """Goedel negation: 1 at degree 0, else 0."""

    concept: Concept


@dataclass(frozen=True)
class InvNeg(Concept):
    """Involutive negation: 1 - degree."""

    concept: Concept


@dataclass(frozen=True)
class Delta(Concept):
    """Baaz projection; shorthand for Goedel-negated involutive negation."""

    concept: Concept


@dataclass(frozen=True)
class And(Concept):
    left: Concept
    right: Concept


@dataclass(frozen=True)
class Or(Concept):
    left: Concept
    right: Concept


@dataclass(frozen=True)
class Implies(Concept):
    left: Concept
    right: Concept


@dataclass(frozen=True)
class Exists(Concept):
    role: Role
    filler: Concept


@dataclass(frozen=True)
class Forall(Concept):
    role: Role
    filler: Concept


@dataclass(frozen=True)
class SelfLoop(Concept):
    """``exists r . self`` -- defined for role names only."""

    role_name: str


def _check_restriction(n, role):
    if not isinstance(n, int) or n < 1:
        raise InputError(f"number-restriction bound must be a positive integer, got {n!r}")
    if not is_basic_role(role):
        raise InputError("number restrictions require a basic role (a name or its inverse)")


@dataclass(frozen=True)
class AtLeast(Concept):
    n: int
    role: Role
    filler: Concept

    def __post_init__(self):
        _check_restriction(self.n, self.role)


@dataclass(frozen=True)
class Less(Concept):
    n: int
    role: Role
    filler: Concept

    def __post_init__(self):
        _check_restriction(self.n, self.role)


@dataclass(frozen=True)
class AtLeastUnq(Concept):
    n: int
    role: Role

    def __post_init__(self):
        _check_restriction(self.n, self.role)


@dataclass(frozen=True)
class LessUnq(Concept):
    n: int
    role: Role

    def __post_init__(self):
        _check_restriction(self.n, self.role)


Expr = Union[Concept, Role]

# The fields of each node class that hold sub-expressions, in field order:
# those annotated Concept or Role (annotations are strings in this module).
_CHILD_FIELDS: Dict[type, Tuple[str, ...]] = {
    cls: tuple(f.name for f in fields(cls) if f.type in ("Concept", "Role"))
    for cls in Role.__subclasses__() + Concept.__subclasses__()
}


def children(expr: Expr) -> Tuple[Expr, ...]:
    """The direct sub-expressions of a node, in field order."""
    try:
        names = _CHILD_FIELDS[type(expr)]
    except KeyError:
        raise InputError(f"not a concept or role: {expr!r}") from None
    if not names:
        return ()
    return tuple([getattr(expr, name) for name in names])


def _map_children(expr: Expr, transform: Callable[[Expr], Expr]) -> Expr:
    """A copy of ``expr`` with ``transform`` applied to each direct
    sub-expression; leaves come back unchanged."""
    kids = children(expr)
    if not kids:
        return expr
    names = _CHILD_FIELDS[type(expr)]
    return replace(expr, **{name: transform(kid) for name, kid in zip(names, kids)})


# ---------------------------------------------------------------------------
# feature well-formedness


def validate(expr: Expr, features: FeatureSet) -> None:
    """Raise :class:`FeatureError` if ``expr`` uses a disabled feature."""
    if isinstance(expr, Inverse) and not features.inverse:
        raise FeatureError(f"inverse roles need feature I: {to_text(expr)}")
    if isinstance(expr, Universal) and not features.universal:
        raise FeatureError("the universal role needs feature U")
    if isinstance(expr, Nominal) and not features.nominals:
        raise FeatureError(f"nominals need feature O: {to_text(expr)}")
    if isinstance(expr, SelfLoop) and not features.self_loops:
        raise FeatureError(f"local reflexivity needs feature Self: {to_text(expr)}")
    if isinstance(expr, (AtLeast, Less)) and not features.allows_qualified(expr.n):
        raise FeatureError(
            f"qualified number restriction needs feature Q{expr.n}: {to_text(expr)}"
        )
    if isinstance(expr, (AtLeastUnq, LessUnq)) and not features.allows_unqualified(expr.n):
        raise FeatureError(
            f"unqualified number restriction needs feature N{expr.n}: {to_text(expr)}"
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

# The views the two readers take of each row: structural_key reads (tag,
# label, child fields); _text reads (level, text, label, and each child's
# field and level).
_KEYS = {cls: (row[0], row[1], _CHILD_FIELDS[cls]) for cls, row in _NODES.items()}
_PRINT = {
    cls: (own, template, label, tuple(zip(_CHILD_FIELDS[cls], levels)))
    for cls, (_tag, label, own, template, levels) in _NODES.items()
}


def _text(expr: Expr, level: int) -> str:
    try:
        own, template, label, kids = _PRINT[type(expr)]
    except KeyError:
        raise InputError(f"not a concept or role: {expr!r}") from None
    if label is None:
        parts = []
    else:
        value = getattr(expr, label)
        # degrees print as decimals; their key label stays the fraction
        parts = [format_degree(value) if type(value) is Fraction else value]
    for name, at in kids:
        parts.append(_text(getattr(expr, name), at))
    text = template % tuple(parts)
    return f"({text})" if own < level else text


def to_text(expr: Expr) -> str:
    """Render an expression in the concrete grammar; parses back identically."""
    return _text(expr, 0)  # the loosest level on both scales


def structural_key(expr: Expr):
    """A total, deterministic ordering key over syntax trees:
    ``(tag, label, keys of the children)``.

    Computed once per node and kept on it: the enumerator keys every
    candidate, and candidates share their subtrees.
    """
    try:
        tag, label, names = _KEYS[type(expr)]
    except KeyError:
        raise InputError(f"not a concept or role: {expr!r}") from None
    key = expr.__dict__.get("_structural_key")
    if key is None:
        text = "" if label is None else str(getattr(expr, label))
        kids = tuple([structural_key(getattr(expr, name)) for name in names])
        key = (tag, text, kids)
        object.__setattr__(expr, "_structural_key", key)
    return key


# ---------------------------------------------------------------------------
# rewrites


def inverse_normal_form(role: Role) -> Role:
    """Push inverses down so they apply to role names only.

    Roles inside concept tests are normalised too; given a concept, every
    role nested in it is.
    """
    if isinstance(role, Inverse):
        inner = role.role
        if isinstance(inner, RoleName):
            return role
        if isinstance(inner, Inverse):
            return inverse_normal_form(inner.role)
        if isinstance(inner, Universal):
            return inner
        if isinstance(inner, Compose):
            return Compose(
                inverse_normal_form(Inverse(inner.right)),
                inverse_normal_form(Inverse(inner.left)),
            )
        if isinstance(inner, RoleUnion):
            return RoleUnion(
                inverse_normal_form(Inverse(inner.left)),
                inverse_normal_form(Inverse(inner.right)),
            )
        if isinstance(inner, Star):
            return Star(inverse_normal_form(Inverse(inner.role)))
        if isinstance(inner, Test):
            return inverse_normal_form(inner)
        raise InputError(f"not a role: {inner!r}")
    return _map_children(role, inverse_normal_form)


# ---------------------------------------------------------------------------
# sublanguages


class Sublanguage(Enum):
    """The five nested grammars this package distinguishes.

    CORE                no involutive negation at all
    CORE_EXISTENTIAL    CORE minus composite roles, Goedel negation,
                        disjunction, value restrictions and "< n" forms;
                        implication only against constants unless a Q bound
                        is enabled
    EXTENDED            everything, involutive negation included
    DELTA               EXTENDED, but involutive negation only inside the
                        Baaz projection
    DELTA_EXISTENTIAL   the existential restriction of DELTA; implication
                        only against constants, negations only as the Baaz
                        projection
    """

    CORE = "core"
    CORE_EXISTENTIAL = "core-existential"
    EXTENDED = "extended"
    DELTA = "delta"
    DELTA_EXISTENTIAL = "delta-existential"
