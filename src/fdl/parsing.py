"""Concrete text syntax for concepts and roles.

Grammar (ASCII), binding strength high to low:

* concepts: prefix ``not`` / ``inv`` / ``delta`` and the quantifier forms
  ``exists R . C``, ``forall R . C``, ``>= n R . C``, ``< n R . C``,
  ``>= n R``, ``< n R``; then ``and``; then ``or``; then right-associative
  ``->``.  Atoms: names, degree constants (``0.25`` or ``1/4``), nominals
  ``{a}``, parentheses.
* roles: postfix ``-`` (inverse) and ``*`` (iteration) bind tightest, with
  ``R+`` accepted as shorthand for ``R ; R*``; then a concept test ``C?``;
  then ``;`` (composition); then ``|`` (union).  ``U`` names the universal
  role and is reserved.

``exists r . self`` expresses local reflexivity and requires a plain role
name.  The finished tree is checked once against the supplied
:class:`FeatureSet` by :func:`fdl.syntax.validate`.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple, Union

from .errors import InputError, ParseError, quoted, too_many_digits
from .godel import DEGREE_TEXT, parse_degree
from . import syntax as s

_KEYWORDS = {"and", "or", "not", "inv", "delta", "exists", "forall", "self", "U"}

_TOKEN_RE = re.compile(
    rf"""
    (?P<ws>\s+)
  | (?P<number>{DEGREE_TEXT})
  | (?P<name>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<op>->|>=|[()\.{{}}?;|*\-<+])
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind  # 'number' | 'name' | keyword or operator text | 'end'
        self.text = text
        self.pos = pos

    def __repr__(self):
        return f"_Token({self.kind!r}, {self.text!r}, {self.pos})"


def _tokenize(text: str) -> List[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "ws":
            pos = m.end()
            continue
        value = m.group()
        if m.lastgroup == "name":
            kind = value if value in _KEYWORDS else "name"
        elif m.lastgroup == "number":
            kind = "number"
        else:
            kind = value
        tokens.append(_Token(kind, value, pos))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        # token position -> the concept test read from there and its end,
        # or None when no test starts there; a test ends with a '?' after its
        # first token, so none starts at or after the last '?'
        self.tests: Dict[int, Optional[Tuple[s.Test, int]]] = {}
        self.last_mark = max((k for k, tok in enumerate(self.tokens) if tok.kind == "?"),
                             default=-1)

    # -- token plumbing ------------------------------------------------

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def take(self, kind: str) -> _Token:
        tok = self.cur
        if tok.kind != kind:
            expected = kind if kind != "name" else "a name"
            raise ParseError(f"expected {expected}, found {quoted(tok.text or 'end of input')}",
                             tok.pos)
        self.i += 1
        return tok

    def at(self, kind: str) -> bool:
        return self.cur.kind == kind

    def eat(self, kind: str) -> bool:
        if self.at(kind):
            self.i += 1
            return True
        return False

    # -- concepts ------------------------------------------------------

    def concept(self) -> s.Concept:
        left = self.disjunction()
        if self.eat("->"):
            return s.Implies(left, self.concept())
        return left

    def disjunction(self) -> s.Concept:
        node = self.conjunction()
        while self.eat("or"):
            node = s.Or(node, self.conjunction())
        return node

    def conjunction(self) -> s.Concept:
        node = self.prefixed()
        while self.eat("and"):
            node = s.And(node, self.prefixed())
        return node

    def prefixed(self) -> s.Concept:
        tok = self.cur
        if self.eat("not"):
            return s.Not(self.prefixed())
        if self.eat("inv"):
            return s.InvNeg(self.prefixed())
        if self.eat("delta"):
            return s.Delta(self.prefixed())
        if self.eat("exists"):
            role = self.role()
            self.take(".")
            if self.eat("self"):
                if not isinstance(role, s.RoleName):
                    raise ParseError(
                        "local reflexivity takes a plain role name", tok.pos
                    )
                return s.SelfLoop(role.name)
            return s.Exists(role, self.prefixed())
        if self.eat("forall"):
            role = self.role()
            self.take(".")
            return s.Forall(role, self.prefixed())
        if self.at(">=") or self.at("<"):
            qualified_at_least = self.eat(">=")
            if not qualified_at_least:
                self.take("<")
            n = self.count()
            role = self.role_postfix()
            if not s.is_basic_role(role):
                raise ParseError("number restrictions take a basic role", tok.pos)
            if self.eat("."):
                filler = self.prefixed()
                return s.AtLeast(n, role, filler) if qualified_at_least else s.Less(n, role, filler)
            return s.AtLeastUnq(n, role) if qualified_at_least else s.LessUnq(n, role)
        return self.atom()

    def count(self) -> int:
        """A counting bound: ASCII digits, at least 1."""
        tok = self.take("number")
        try:
            n = int(tok.text) if re.fullmatch(r"[0-9]+", tok.text) else 0
        except ValueError as exc:
            message = too_many_digits("number-restriction bound", tok.text)
            raise ParseError(message, tok.pos) from exc
        if n < 1:
            raise ParseError(
                f"number-restriction bound must be a positive integer, got {tok.text!r}",
                tok.pos,
            )
        return n

    def atom(self) -> s.Concept:
        tok = self.cur
        if self.eat("number"):
            try:
                return s.Constant(parse_degree(tok.text))
            except InputError as exc:
                raise ParseError(str(exc), tok.pos) from exc
        if self.eat("{"):
            name = self.take("name").text
            self.take("}")
            return s.Nominal(name)
        if self.eat("("):
            inner = self.concept()
            self.take(")")
            return inner
        if self.at("name"):
            return s.ConceptName(self.take("name").text)
        raise ParseError(f"expected a concept, found {tok.text or 'end of input'!r}", tok.pos)

    # -- roles ----------------------------------------------------------

    def role(self) -> s.Role:
        node = self.role_compose()
        while self.eat("|"):
            node = s.RoleUnion(node, self.role_compose())
        return node

    def role_compose(self) -> s.Role:
        node = self.role_postfix()
        while self.eat(";"):
            node = s.Compose(node, self.role_postfix())
        return node

    def role_postfix(self) -> s.Role:
        node = self.role_atom()
        while True:
            if self.eat("-"):
                node = s.Inverse(node)
            elif self.eat("*"):
                node = s.Star(node)
            elif self.eat("+"):
                node = s.Compose(node, s.Star(node))
            else:
                return node

    def role_atom(self) -> s.Role:
        tok = self.cur
        # A concept test ends with '?'; try that reading first and back off.
        # The attempt at each position is remembered: nested tests would
        # otherwise re-parse the same text at every level.  Past the last
        # '?' no test can start, and nothing is tried.
        start = self.i
        if start < self.last_mark and start not in self.tests:
            found = None
            try:
                concept = self.concept()
                if self.eat("?"):
                    found = s.Test(concept), self.i
            except ParseError:
                pass
            self.tests[start] = found
        found = self.tests.get(start)
        if found is not None:
            self.i = found[1]
            return found[0]
        self.i = start
        if self.eat("U"):
            return s.Universal()
        if self.at("name"):
            return s.RoleName(self.take("name").text)
        if self.eat("("):
            inner = self.role()
            self.take(")")
            return inner
        raise ParseError(f"expected a role, found {quoted(tok.text or 'end of input')}", tok.pos)


# The default feature set, which accepts every construct; feature sets are
# frozen, so every call shares this one.
_PERMISSIVE = s.FeatureSet.permissive()


def _parse(text: str, read, features: Optional[s.FeatureSet]) -> Union[s.Concept, s.Role]:
    """``read`` (:meth:`_Parser.concept` or :meth:`_Parser.role`) over the
    whole of ``text``, checked under ``features``: by default the permissive
    feature set."""
    features = features if features is not None else _PERMISSIVE
    parser = _Parser(text)
    node = read(parser)
    trailing = parser.cur
    if trailing.kind != "end":
        raise ParseError(f"trailing input {quoted(trailing.text)}", trailing.pos)
    s.validate(node, features)
    return node


def parse_concept(text: str, features: Optional[s.FeatureSet] = None) -> s.Concept:
    """Parse ``text`` as a concept under ``features``."""
    return _parse(text, _Parser.concept, features)


def parse_role(text: str, features: Optional[s.FeatureSet] = None) -> s.Role:
    """Parse ``text`` as a role under ``features``."""
    return _parse(text, _Parser.role, features)
