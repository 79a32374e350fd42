"""Concept and role syntax trees, feature sets, and sublanguage tools.

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

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import FrozenSet, Optional, Union

from .errors import FeatureError, InputError
from .godel import ONE, ZERO, degree, format_degree

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
    def parse(cls, text: str) -> "FeatureSet":
        """Parse a comma list such as ``"I,O,U,Self,Q2,N3"``; "" is empty.

        ``Q*`` and ``N*`` enable every bound n, as :meth:`format` writes them.
        """
        kwargs = {
            "inverse": False,
            "nominals": False,
            "universal": False,
            "self_loops": False,
        }
        bounds = {"Q": set(), "N": set()}
        for raw in text.split(","):
            token = raw.strip()
            if not token:
                continue
            if token in _FEATURE_WORDS:
                kwargs[_FEATURE_WORDS[token]] = True
            elif token in ("Q*", "N*"):
                bounds[token[0]] = None
            elif token[0] in "QN" and token[1:].isdigit() and int(token[1:]) >= 1:
                if bounds[token[0]] is not None:
                    bounds[token[0]].add(int(token[1:]))
            else:
                raise InputError(
                    f"unknown feature token {token!r}; expected I, O, U, Self, "
                    f"Q<n>, N<n>, Q* or N*"
                )
        return cls(q_bounds=bounds["Q"], n_bounds=bounds["N"], **kwargs)

    def format(self) -> str:
        parts = []
        if self.inverse:
            parts.append("I")
        if self.nominals:
            parts.append("O")
        if self.universal:
            parts.append("U")
        if self.self_loops:
            parts.append("Self")
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


TOP = Constant(ONE)
BOTTOM = Constant(ZERO)


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


# ---------------------------------------------------------------------------
# feature well-formedness


def validate(expr: Expr, features: FeatureSet) -> None:
    """Raise :class:`FeatureError` if ``expr`` uses a disabled feature."""
    if isinstance(expr, Inverse):
        if not features.inverse:
            raise FeatureError(f"inverse roles need feature I: {to_text(expr)}")
        validate(expr.role, features)
    elif isinstance(expr, Universal):
        if not features.universal:
            raise FeatureError("the universal role needs feature U")
    elif isinstance(expr, (Compose, RoleUnion)):
        validate(expr.left, features)
        validate(expr.right, features)
    elif isinstance(expr, Star):
        validate(expr.role, features)
    elif isinstance(expr, Test):
        validate(expr.concept, features)
    elif isinstance(expr, RoleName):
        pass
    elif isinstance(expr, Nominal):
        if not features.nominals:
            raise FeatureError(f"nominals need feature O: {to_text(expr)}")
    elif isinstance(expr, SelfLoop):
        if not features.self_loops:
            raise FeatureError(f"local reflexivity needs feature Self: {to_text(expr)}")
    elif isinstance(expr, (AtLeast, Less)):
        if not features.allows_qualified(expr.n):
            raise FeatureError(
                f"qualified number restriction needs feature Q{expr.n}: {to_text(expr)}"
            )
        validate(expr.role, features)
        validate(expr.filler, features)
    elif isinstance(expr, (AtLeastUnq, LessUnq)):
        if not features.allows_unqualified(expr.n):
            raise FeatureError(
                f"unqualified number restriction needs feature N{expr.n}: {to_text(expr)}"
            )
        validate(expr.role, features)
    elif isinstance(expr, (Not, InvNeg, Delta)):
        validate(expr.concept, features)
    elif isinstance(expr, (And, Or, Implies)):
        validate(expr.left, features)
        validate(expr.right, features)
    elif isinstance(expr, (Exists, Forall)):
        validate(expr.role, features)
        validate(expr.filler, features)
    elif isinstance(expr, (Constant, ConceptName)):
        pass
    else:
        raise InputError(f"not a concept or role: {expr!r}")


# ---------------------------------------------------------------------------
# pretty printer (inverse of parsing.parse; see that module for the grammar)

_C_IMPLIES, _C_OR, _C_AND, _C_PREFIX, _C_ATOM = range(5)
_R_UNION, _R_COMPOSE, _R_POSTFIX, _R_ATOM = range(4)


def _concept_text(c: Concept, level: int) -> str:
    if isinstance(c, Constant):
        own, text = _C_ATOM, format_degree(c.value)
    elif isinstance(c, ConceptName):
        own, text = _C_ATOM, c.name
    elif isinstance(c, Nominal):
        own, text = _C_ATOM, "{%s}" % c.individual
    elif isinstance(c, Not):
        own, text = _C_PREFIX, "not " + _concept_text(c.concept, _C_PREFIX)
    elif isinstance(c, InvNeg):
        own, text = _C_PREFIX, "inv " + _concept_text(c.concept, _C_PREFIX)
    elif isinstance(c, Delta):
        own, text = _C_PREFIX, "delta " + _concept_text(c.concept, _C_PREFIX)
    elif isinstance(c, And):
        own = _C_AND
        text = _concept_text(c.left, _C_AND) + " and " + _concept_text(c.right, _C_AND + 1)
    elif isinstance(c, Or):
        own = _C_OR
        text = _concept_text(c.left, _C_OR) + " or " + _concept_text(c.right, _C_OR + 1)
    elif isinstance(c, Implies):
        own = _C_IMPLIES
        text = (
            _concept_text(c.left, _C_IMPLIES + 1)
            + " -> "
            + _concept_text(c.right, _C_IMPLIES)
        )
    elif isinstance(c, Exists):
        own = _C_PREFIX
        text = f"exists {_role_text(c.role, _R_UNION)} . {_concept_text(c.filler, _C_PREFIX)}"
    elif isinstance(c, Forall):
        own = _C_PREFIX
        text = f"forall {_role_text(c.role, _R_UNION)} . {_concept_text(c.filler, _C_PREFIX)}"
    elif isinstance(c, SelfLoop):
        own, text = _C_PREFIX, f"exists {c.role_name} . self"
    elif isinstance(c, AtLeast):
        own = _C_PREFIX
        text = f">= {c.n} {_role_text(c.role, _R_POSTFIX)} . {_concept_text(c.filler, _C_PREFIX)}"
    elif isinstance(c, Less):
        own = _C_PREFIX
        text = f"< {c.n} {_role_text(c.role, _R_POSTFIX)} . {_concept_text(c.filler, _C_PREFIX)}"
    elif isinstance(c, AtLeastUnq):
        own, text = _C_PREFIX, f">= {c.n} {_role_text(c.role, _R_POSTFIX)}"
    elif isinstance(c, LessUnq):
        own, text = _C_PREFIX, f"< {c.n} {_role_text(c.role, _R_POSTFIX)}"
    else:
        raise InputError(f"not a concept: {c!r}")
    return f"({text})" if own < level else text


def _role_text(r: Role, level: int) -> str:
    if isinstance(r, RoleName):
        own, text = _R_ATOM, r.name
    elif isinstance(r, Universal):
        own, text = _R_ATOM, "U"
    elif isinstance(r, Inverse):
        own, text = _R_POSTFIX, _role_text(r.role, _R_POSTFIX) + "-"
    elif isinstance(r, Star):
        own, text = _R_POSTFIX, _role_text(r.role, _R_POSTFIX) + "*"
    elif isinstance(r, Compose):
        own = _R_COMPOSE
        text = _role_text(r.left, _R_COMPOSE) + " ; " + _role_text(r.right, _R_COMPOSE + 1)
    elif isinstance(r, RoleUnion):
        own = _R_UNION
        text = _role_text(r.left, _R_UNION) + " | " + _role_text(r.right, _R_UNION + 1)
    elif isinstance(r, Test):
        own = _R_ATOM
        inner = _concept_text(r.concept, _C_ATOM)
        text = inner + "?"
    else:
        raise InputError(f"not a role: {r!r}")
    return f"({text})" if own < level else text


def to_text(expr: Expr) -> str:
    """Render an expression in the concrete grammar; parses back identically."""
    if isinstance(expr, Concept):
        return _concept_text(expr, _C_IMPLIES)
    return _role_text(expr, _R_UNION)


# ---------------------------------------------------------------------------
# rewrites


def inverse_normal_form(role: Role) -> Role:
    """Push inverses down so they apply to role names only."""
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
    if isinstance(role, Compose):
        return Compose(inverse_normal_form(role.left), inverse_normal_form(role.right))
    if isinstance(role, RoleUnion):
        return RoleUnion(inverse_normal_form(role.left), inverse_normal_form(role.right))
    if isinstance(role, Star):
        return Star(inverse_normal_form(role.role))
    if isinstance(role, Test):
        return Test(_inf_in_concept(role.concept))
    return role


def _inf_in_concept(c: Concept) -> Concept:
    """Apply inverse normal form to every role nested inside a concept."""
    if isinstance(c, (Exists, Forall)):
        return type(c)(inverse_normal_form(c.role), _inf_in_concept(c.filler))
    if isinstance(c, (AtLeast, Less)):
        return type(c)(c.n, inverse_normal_form(c.role), _inf_in_concept(c.filler))
    if isinstance(c, (AtLeastUnq, LessUnq)):
        return type(c)(c.n, inverse_normal_form(c.role))
    if isinstance(c, (Not, InvNeg, Delta)):
        return type(c)(_inf_in_concept(c.concept))
    if isinstance(c, (And, Or, Implies)):
        return type(c)(_inf_in_concept(c.left), _inf_in_concept(c.right))
    return c


def rewrite_definable(c: Concept) -> Concept:
    """Eliminate Goedel negation and disjunction via implication, bottom-up.

    ``not C`` becomes ``C -> 0``; ``C or D`` becomes
    ``((C -> D) -> D) and ((D -> C) -> C)``.  The Baaz projection unfolds to
    its defining shape first; involutive negation is left intact.
    """
    if isinstance(c, Delta):
        return rewrite_definable(Not(InvNeg(c.concept)))
    if isinstance(c, Not):
        return Implies(rewrite_definable(c.concept), BOTTOM)
    if isinstance(c, Or):
        left = rewrite_definable(c.left)
        right = rewrite_definable(c.right)
        return And(
            Implies(Implies(left, right), right),
            Implies(Implies(right, left), left),
        )
    if isinstance(c, InvNeg):
        return InvNeg(rewrite_definable(c.concept))
    if isinstance(c, And):
        return And(rewrite_definable(c.left), rewrite_definable(c.right))
    if isinstance(c, Implies):
        return Implies(rewrite_definable(c.left), rewrite_definable(c.right))
    if isinstance(c, (Exists, Forall)):
        return type(c)(_rewrite_in_role(c.role), rewrite_definable(c.filler))
    if isinstance(c, (AtLeast, Less)):
        return type(c)(c.n, c.role, rewrite_definable(c.filler))
    return c


def _rewrite_in_role(r: Role) -> Role:
    if isinstance(r, Test):
        return Test(rewrite_definable(r.concept))
    if isinstance(r, (Compose, RoleUnion)):
        return type(r)(_rewrite_in_role(r.left), _rewrite_in_role(r.right))
    if isinstance(r, Star):
        return Star(_rewrite_in_role(r.role))
    if isinstance(r, Inverse):
        return Inverse(_rewrite_in_role(r.role))
    return r


# ---------------------------------------------------------------------------
# sublanguage classification


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


@dataclass
class _Usage:
    has_invneg: bool = False        # any involutive negation (Delta included)
    has_not: bool = False           # any Goedel negation (Delta excluded)
    loose_invneg: bool = False      # involutive negation not under a Goedel one
    loose_not: bool = False         # Goedel negation not over an involutive one
    role_constructors: bool = False
    disjunction: bool = False
    forall: bool = False
    less: bool = False
    free_implies: bool = False      # an implication with no constant side


def _scan_concept(c: Concept, u: _Usage) -> None:
    if isinstance(c, (Constant, ConceptName, Nominal, SelfLoop)):
        return
    if isinstance(c, Delta):
        u.has_invneg = True
        _scan_concept(c.concept, u)
        return
    if isinstance(c, Not):
        u.has_not = True
        if isinstance(c.concept, InvNeg):
            # the Baaz shape: this pair of negations is sanctioned
            u.has_invneg = True
            _scan_concept(c.concept.concept, u)
        else:
            u.loose_not = True
            _scan_concept(c.concept, u)
        return
    if isinstance(c, InvNeg):
        u.has_invneg = True
        u.loose_invneg = True
        _scan_concept(c.concept, u)
        return
    if isinstance(c, And):
        _scan_concept(c.left, u)
        _scan_concept(c.right, u)
        return
    if isinstance(c, Or):
        u.disjunction = True
        _scan_concept(c.left, u)
        _scan_concept(c.right, u)
        return
    if isinstance(c, Implies):
        if not isinstance(c.left, Constant) and not isinstance(c.right, Constant):
            u.free_implies = True
        _scan_concept(c.left, u)
        _scan_concept(c.right, u)
        return
    if isinstance(c, (Exists, Forall)):
        if isinstance(c, Forall):
            u.forall = True
        _scan_role(c.role, u)
        _scan_concept(c.filler, u)
        return
    if isinstance(c, (AtLeast, Less)):
        if isinstance(c, Less):
            u.less = True
        _scan_role(c.role, u)
        _scan_concept(c.filler, u)
        return
    if isinstance(c, (AtLeastUnq, LessUnq)):
        if isinstance(c, LessUnq):
            u.less = True
        _scan_role(c.role, u)
        return
    raise InputError(f"not a concept: {c!r}")


def _scan_role(r: Role, u: _Usage) -> None:
    if isinstance(r, (RoleName, Universal)):
        return
    if isinstance(r, Inverse):
        if not isinstance(r.role, RoleName):
            u.role_constructors = True
        _scan_role(r.role, u)
        return
    if isinstance(r, (Compose, RoleUnion, Star)):
        u.role_constructors = True
        for child in (r.left, r.right) if not isinstance(r, Star) else (r.role,):
            _scan_role(child, u)
        return
    if isinstance(r, Test):
        u.role_constructors = True
        _scan_concept(r.concept, u)
        return
    raise InputError(f"not a role: {r!r}")


def classify_sublanguage(c: Concept, features: FeatureSet) -> FrozenSet[Sublanguage]:
    """The exact set of sublanguages whose grammar admits ``c``."""
    u = _Usage()
    _scan_concept(c, u)
    tags = {Sublanguage.EXTENDED}
    if not u.has_invneg:
        tags.add(Sublanguage.CORE)
    if not u.loose_invneg:
        tags.add(Sublanguage.DELTA)
    existential_ok = not (
        u.role_constructors or u.disjunction or u.forall or u.less
    )
    if (
        existential_ok
        and not u.has_invneg
        and not u.has_not
        and (features.has_qualified() or not u.free_implies)
    ):
        tags.add(Sublanguage.CORE_EXISTENTIAL)
    if (
        existential_ok
        and not u.loose_invneg
        and not u.loose_not
        and not u.free_implies
    ):
        tags.add(Sublanguage.DELTA_EXISTENTIAL)
    return frozenset(tags)


def structural_key(expr: Expr):
    """A total, deterministic ordering key over syntax trees."""
    if isinstance(expr, Constant):
        return (0, str(expr.value), ())
    if isinstance(expr, ConceptName):
        return (1, expr.name, ())
    if isinstance(expr, Nominal):
        return (2, expr.individual, ())
    if isinstance(expr, SelfLoop):
        return (3, expr.role_name, ())
    if isinstance(expr, RoleName):
        return (20, expr.name, ())
    if isinstance(expr, Universal):
        return (21, "", ())
    if isinstance(expr, Inverse):
        return (22, "", (structural_key(expr.role),))
    if isinstance(expr, Star):
        return (23, "", (structural_key(expr.role),))
    if isinstance(expr, Compose):
        return (24, "", (structural_key(expr.left), structural_key(expr.right)))
    if isinstance(expr, RoleUnion):
        return (25, "", (structural_key(expr.left), structural_key(expr.right)))
    if isinstance(expr, Test):
        return (26, "", (structural_key(expr.concept),))
    if isinstance(expr, Not):
        return (4, "", (structural_key(expr.concept),))
    if isinstance(expr, InvNeg):
        return (5, "", (structural_key(expr.concept),))
    if isinstance(expr, Delta):
        return (6, "", (structural_key(expr.concept),))
    if isinstance(expr, And):
        return (7, "", (structural_key(expr.left), structural_key(expr.right)))
    if isinstance(expr, Or):
        return (8, "", (structural_key(expr.left), structural_key(expr.right)))
    if isinstance(expr, Implies):
        return (9, "", (structural_key(expr.left), structural_key(expr.right)))
    if isinstance(expr, Exists):
        return (10, "", (structural_key(expr.role), structural_key(expr.filler)))
    if isinstance(expr, Forall):
        return (11, "", (structural_key(expr.role), structural_key(expr.filler)))
    if isinstance(expr, AtLeast):
        return (12, str(expr.n), (structural_key(expr.role), structural_key(expr.filler)))
    if isinstance(expr, Less):
        return (13, str(expr.n), (structural_key(expr.role), structural_key(expr.filler)))
    if isinstance(expr, AtLeastUnq):
        return (14, str(expr.n), (structural_key(expr.role),))
    if isinstance(expr, LessUnq):
        return (15, str(expr.n), (structural_key(expr.role),))
    raise InputError(f"not a concept or role: {expr!r}")
